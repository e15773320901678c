"""Every dataclass of the package is slotted and keeps dataclass behaviour.

No test here needs pytest, so the module also runs as a plain script:

    PYTHONPATH=src python tests/test_records.py
"""

import dataclasses
import importlib
import pkgutil

import trestles
from trestles.graphs import Tree, path_graph, spider
from trestles.matching_flow import HallViolator, Matching
from trestles.obstruction import AttachmentPattern, BasePatterns, FFamilyMember, check_obstruction
from trestles.oracle import enumerate_trees
from trestles.patterns import centre_witness, tree_profile
from trestles.tree_trestle import build_tree_trestle, decide_tree_trestle
from trestles.verify import verify_trestle


def _package_dataclasses() -> set[type]:
    found = set()
    for info in pkgutil.iter_modules(trestles.__path__):
        module = importlib.import_module(f"trestles.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and dataclasses.is_dataclass(value):
                if value.__module__ == module.__name__:
                    found.add(value)
    return found


def _records():
    """One instance of each package dataclass, with a field name and a
    value for it that makes a record unequal to the instance."""
    p5, s3 = path_graph(5), Tree(7, spider(3).edges())
    cert = build_tree_trestle(p5, 2, decide_tree_trestle(p5, 2))
    member = FFamilyMember(s3, (0,))
    attachment = AttachmentPattern(s3, 0, 1)
    return [
        (cert, "k", 3),
        (verify_trestle(cert), "checks", []),
        (Matching(p5, ((0, 1),)), "edge_list", ((1, 2),)),
        (HallViolator(frozenset({0}), frozenset()), "neighbourhood", frozenset({1})),
        (decide_tree_trestle(s3, 3), "values", {}),
        (check_obstruction(Tree(9, spider(4).edges())), "kind", "hall"),
        (member, "special", (1,)),
        (attachment, "w", 2),
        (BasePatterns(member, attachment, True), "t0_confirmed", False),
        (centre_witness(s3, 0, 3), "centre", 1),
        (tree_profile(s3), "non_leaf_neighbours", (0,) * 7),
    ]


def _raises(error, fn, *args) -> bool:
    try:
        fn(*args)
    except error:
        return True
    return False


def test_every_package_dataclass_is_slotted_and_covered():
    records = _records()
    assert {type(r) for r, _, _ in records} == _package_dataclasses()
    for record, _, _ in records:
        assert "__slots__" in type(record).__dict__
        assert not hasattr(record, "__dict__")


def test_slotted_records_keep_replace_eq_and_hash():
    for record, name, other in _records():
        cls = type(record)
        frozen = cls.__dataclass_params__.frozen
        same = dataclasses.replace(record)
        assert same is not record and same == record
        changed = dataclasses.replace(record, **{name: other})
        assert changed != record and getattr(changed, name) == other
        if frozen:
            assert _raises(dataclasses.FrozenInstanceError, setattr, record, name, other)
            assert _raises(dataclasses.FrozenInstanceError, delattr, record, name)
            # equal records hash equal; a record with a dict field has no hash
            if all(type(getattr(record, f.name)) is not dict for f in dataclasses.fields(cls)):
                assert hash(same) == hash(record)
            else:
                assert _raises(TypeError, hash, record)
        else:
            assert cls.__hash__ is None
            assert _raises(AttributeError, setattr, record, "not_a_field", 1)
            setattr(same, name, other)
            assert same == changed


def test_free_trees_build_and_verify_with_slotted_records():
    for n in range(3, 10):
        for t in enumerate_trees(n):
            for k in (2, 3, 4):
                a = decide_tree_trestle(t, k)
                if a is None:
                    continue
                cert = build_tree_trestle(t, k, a)
                assert verify_trestle(cert).passed()
                assert dataclasses.replace(cert) == cert
            assert (check_obstruction(t) is None) == (decide_tree_trestle(t, 3) is not None)


if __name__ == "__main__":
    for test_name, test in sorted(globals().items()):
        if test_name.startswith("test_"):
            test()
            print("ok", test_name)
