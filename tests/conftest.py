# ensures the tests directory is importable (for helpers.py)
from hypothesis import settings

# derandomized and database-free, so every run draws the same examples
settings.register_profile(
    "tier1", derandomize=True, database=None, deadline=None, max_examples=150
)
settings.load_profile("tier1")
