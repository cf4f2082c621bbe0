"""Tests for the B-tree, including hypothesis properties against a dict."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConstraintError
from repro.storage.btree import NULL_KEY, BTree


class TestBTreeBasics:
    def test_empty(self):
        tree = BTree()
        assert len(tree) == 0
        assert tree.search((1,)) == []
        assert tree.min_key() is None
        assert tree.max_key() is None

    def test_insert_search(self):
        tree = BTree()
        tree.insert((5,), "a")
        assert tree.search((5,)) == ["a"]
        assert tree.contains((5,))
        assert not tree.contains((6,))

    def test_duplicate_keys_non_unique(self):
        tree = BTree()
        tree.insert((5,), "a")
        tree.insert((5,), "b")
        assert sorted(tree.search((5,))) == ["a", "b"]
        assert len(tree) == 2

    def test_unique_rejects_duplicates(self):
        tree = BTree(unique=True)
        tree.insert((5,), "a")
        with pytest.raises(ConstraintError):
            tree.insert((5,), "b")

    def test_delete_specific_value(self):
        tree = BTree()
        tree.insert((5,), "a")
        tree.insert((5,), "b")
        assert tree.delete((5,), "a")
        assert tree.search((5,)) == ["b"]
        assert len(tree) == 1

    def test_delete_whole_key(self):
        tree = BTree()
        tree.insert((5,), "a")
        tree.insert((5,), "b")
        assert tree.delete((5,))
        assert tree.search((5,)) == []
        assert len(tree) == 0

    def test_delete_missing_returns_false(self):
        tree = BTree()
        assert not tree.delete((1,))
        tree.insert((1,), "a")
        assert not tree.delete((1,), "other")

    def test_many_inserts_force_splits(self):
        tree = BTree(t=2)
        for i in range(200):
            tree.insert((i,), i)
        assert len(tree) == 200
        assert [k[0] for k, _v in tree.items()] == list(range(200))

    def test_interleaved_deletes_force_merges(self):
        tree = BTree(t=2)
        for i in range(100):
            tree.insert((i,), i)
        for i in range(0, 100, 2):
            assert tree.delete((i,))
        remaining = [k[0] for k, _v in tree.items()]
        assert remaining == list(range(1, 100, 2))

    def test_range_scan_inclusive(self):
        tree = BTree()
        for i in range(10):
            tree.insert((i,), i)
        got = [k[0] for k, _v in tree.range((3,), (6,))]
        assert got == [3, 4, 5, 6]

    def test_range_scan_exclusive(self):
        tree = BTree()
        for i in range(10):
            tree.insert((i,), i)
        got = [k[0] for k, _v in tree.range((3,), (6,),
                                            lo_inclusive=False,
                                            hi_inclusive=False)]
        assert got == [4, 5]

    def test_range_open_ended(self):
        tree = BTree()
        for i in range(5):
            tree.insert((i,), i)
        assert [k[0] for k, _v in tree.range(lo=(3,))] == [3, 4]
        assert [k[0] for k, _v in tree.range(hi=(1,))] == [0, 1]

    def test_composite_keys_order(self):
        tree = BTree()
        keys = [(1, "b"), (1, "a"), (0, "z"), (2, "a")]
        for key in keys:
            tree.insert(key, key)
        assert [k for k, _v in tree.items()] == sorted(keys)

    def test_min_max(self):
        tree = BTree(t=2)
        for i in [5, 3, 8, 1, 9]:
            tree.insert((i,), i)
        assert tree.min_key() == (1,)
        assert tree.max_key() == (9,)

    def test_bad_degree_rejected(self):
        with pytest.raises(ValueError):
            BTree(t=1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(0, 5)),
                max_size=300))
def test_btree_matches_dict_under_inserts(pairs):
    """Insert-only property: contents match a reference multimap."""
    tree = BTree(t=2)
    reference: dict[tuple, list] = {}
    for key_val in pairs:
        key = (key_val[0],)
        tree.insert(key, key_val[1])
        reference.setdefault(key, []).append(key_val[1])
    for key, values in reference.items():
        assert sorted(tree.search(key)) == sorted(values)
    assert len(tree) == sum(len(v) for v in reference.values())
    assert [k for k, _v in tree.items()] == sorted(
        k for k in reference for _ in reference[k])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(-20, 20)),
                max_size=300))
def test_btree_matches_dict_under_mixed_ops(ops):
    """Insert/delete property: tree always agrees with a reference dict."""
    tree = BTree(t=2)
    reference: dict[tuple, list] = {}
    for is_delete, raw in ops:
        key = (raw,)
        if is_delete:
            expected = bool(reference.pop(key, None))
            assert tree.delete(key) == expected
        else:
            tree.insert(key, raw)
            reference.setdefault(key, []).append(raw)
    assert sorted(k for k, _v in tree.items()) == sorted(
        k for k in reference for _ in reference[k])
    for key, values in reference.items():
        assert sorted(tree.search(key)) == sorted(values)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(-100, 100), max_size=120),
       st.integers(-100, 100), st.integers(-100, 100))
def test_btree_range_matches_sorted_filter(keys, lo, hi):
    tree = BTree(t=3)
    for k in keys:
        tree.insert((k,), k)
    lo_key, hi_key = min(lo, hi), max(lo, hi)
    got = [k[0] for k, _v in tree.range((lo_key,), (hi_key,))]
    assert got == sorted(k for k in keys if lo_key <= k <= hi_key)


# ---------------------------------------------------------------------------
# BTree.build == inserting the pairs one by one
# ---------------------------------------------------------------------------

_KEY_PART = st.one_of(st.integers(-6, 6), st.just(NULL_KEY))


@st.composite
def _build_cases(draw):
    """Pairs over one key width (duplicates, NULLs, composite keys), a
    degree, a uniqueness mode, and inserts/deletes to run afterwards."""
    width = draw(st.integers(1, 2))
    key = st.tuples(*[_KEY_PART] * width)
    pairs = draw(st.lists(st.tuples(key, st.integers(0, 999)),
                          max_size=draw(st.sampled_from([8, 60, 400]))))
    ops = draw(st.lists(st.tuples(st.booleans(), key, st.integers(0, 999)),
                        max_size=40))
    bounds = st.one_of(st.none(), st.lists(_KEY_PART, min_size=1,
                                           max_size=width).map(tuple))
    ranges = draw(st.lists(st.tuples(bounds, bounds, st.booleans(),
                                     st.booleans()), max_size=6))
    return {"pairs": pairs, "t": draw(st.sampled_from([2, 3, 16])),
            "unique": draw(st.booleans()), "ops": ops, "ranges": ranges}


def _one_by_one(pairs, unique, t):
    tree = BTree(unique=unique, t=t)
    for key, value in pairs:
        tree.insert(key, value, enforce_unique=False)
    return tree


def _assert_same(built, grown, keys, ranges):
    assert list(built.items()) == list(grown.items())
    assert len(built) == len(grown)
    assert built.min_key() == grown.min_key()
    assert built.max_key() == grown.max_key()
    assert built.admitted == grown.admitted
    for key in keys:
        assert built.search(key) == grown.search(key)
    for lo, hi, lo_inc, hi_inc in ranges:
        assert list(built.range(lo, hi, lo_inc, hi_inc)) == \
            list(grown.range(lo, hi, lo_inc, hi_inc))


def _assert_shape(tree):
    """Every non-root node holds t-1..2t-1 keys, an inner node one child
    more than keys, and all leaves share one depth."""
    t, depths = tree._t, set()

    def walk(node, depth):
        if node is not tree._root:
            assert t - 1 <= len(node.keys) <= 2 * t - 1
        assert len(node.values) == len(node.keys)
        if node.is_leaf:
            depths.add(depth)
            return
        assert len(node.children) == len(node.keys) + 1
        for child in node.children:
            walk(child, depth + 1)

    walk(tree._root, 0)
    assert len(depths) == 1


@settings(max_examples=150, deadline=None)
@given(_build_cases())
def test_build_equals_inserting_one_by_one(case):
    pairs, t, unique = case["pairs"], case["t"], case["unique"]
    built = BTree.build(pairs, unique, enforce_unique=False, t=t)
    grown = _one_by_one(pairs, unique, t)
    keys = [key for key, _value in pairs] + [key for _d, key, _v
                                             in case["ops"]]
    _assert_same(built, grown, keys, case["ranges"])
    _assert_shape(built)
    for is_delete, key, value in case["ops"]:
        if is_delete:
            victim = next((v for k, v in grown.items() if k == key), None)
            assert built.delete(key, victim) == grown.delete(key, victim)
        else:
            built.insert(key, value, enforce_unique=False)
            grown.insert(key, value, enforce_unique=False)
        _assert_shape(built)
    _assert_same(built, grown, keys, case["ranges"])


@settings(max_examples=100, deadline=None)
@given(_build_cases())
def test_enforcing_build_raises_what_the_first_duplicate_raises(case):
    pairs, t = case["pairs"], case["t"]
    expected = None
    tree = BTree(unique=True, t=t)
    try:
        for key, value in pairs:
            tree.insert(key, value)
    except ConstraintError as error:
        expected = str(error)
    if expected is None:
        assert list(BTree.build(pairs, True, t=t).items()) == \
            list(tree.items())
    else:
        with pytest.raises(ConstraintError) as raised:
            BTree.build(pairs, True, t=t)
        assert str(raised.value) == expected
    # A non-unique tree never raises and admits nothing.
    assert not BTree.build(pairs, False, t=t).admitted


def test_build_packs_a_large_tree_to_minimal_height():
    pairs = [((i,), i) for i in range(6034)]
    tree = BTree.build(pairs, unique=True)
    _assert_shape(tree)
    depth, node = 0, tree._root
    while not node.is_leaf:
        node, depth = node.children[0], depth + 1
    assert depth == 2                 # 32**2 < 6035 <= 32**3
    assert list(tree.items()) == pairs
    assert tree.search((4000,)) == [4000]
