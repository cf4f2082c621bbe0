"""An order-``t`` B-tree mapping keys to row ids.

Used for primary-key and secondary indexes (TPC-C is all point lookups and
short range scans).  Keys are tuples of SQL values compared
lexicographically; each key maps to one or more :class:`RowId` values
(unique indexes enforce a single rid per key).

The tree is a plain in-memory structure: it is *not* logged.  The heap
is the durable truth — a table runtime builds each tree from its heap
at attach time, and restart recovery then maintains the trees
*incrementally*, routing every redone or undone heap change through the
index-aware apply methods (see ``wal/recovery.py`` and DESIGN.md §8),
so no wholesale post-recovery rebuild is needed.

A tree filled from many rows at once is built, not grown:
:meth:`BTree.build` sorts the ``(key, rid)`` pairs once and packs the
nodes level by level, leaves first.  The result holds exactly what
inserting the pairs one by one would hold — the same keys, the same
payload order, the same :attr:`BTree.admitted` keys — in a tree of
minimal height whose every non-root node holds ``t-1..2t-1`` keys.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter

from repro.errors import ConstraintError


class NullKey:
    """Sorts below every SQL value: the index-key stand-in for NULL.

    B-tree keys compare lexicographically, and ``None`` has no ordering
    against ints/strings — so stored keys replace NULL with this
    sentinel (see :func:`encode_key`).  Seeks never bind it: a
    comparison against NULL is *unknown* in SQL three-valued logic, so
    the executor short-circuits those to zero matches instead.
    """

    __slots__ = ()

    def __lt__(self, other):
        return not isinstance(other, NullKey)

    def __gt__(self, other):
        return False

    def __le__(self, other):
        return True

    def __ge__(self, other):
        return isinstance(other, NullKey)

    def __eq__(self, other):
        return isinstance(other, NullKey)

    def __hash__(self):
        return 0

    def __repr__(self):
        return "NULL"


NULL_KEY = NullKey()


def encode_key(values) -> tuple:
    """Index-key encoding of a column-value sequence (NULL -> sentinel)."""
    return tuple(NULL_KEY if v is None else v for v in values)


def decode_key_value(value):
    """Inverse of :func:`encode_key` for one key column."""
    return None if isinstance(value, NullKey) else value


class _Node:
    __slots__ = ("keys", "values", "children")

    def __init__(self, keys=None, values=None, children=None):
        self.keys: list[tuple] = keys or []
        self.values: list[list] = values or []  # parallel to keys
        self.children: list["_Node"] = children or []  # empty for leaves

    @property
    def is_leaf(self) -> bool:
        return not self.children


class BTree:
    """B-tree with configurable minimum degree ``t`` (default 16)."""

    def __init__(self, unique: bool = False, t: int = 16):
        if t < 2:
            raise ValueError("minimum degree must be at least 2")
        self._t = t
        self.unique = unique
        self._root = _Node()
        self._size = 0  # number of (key, value) pairs
        #: Keys of a unique tree that took a second value unchecked
        #: (``enforce_unique=False``): the only keys that can hold more
        #: than one, so the only ones a uniqueness check must read.
        self.admitted: set[tuple] = set()

    def __len__(self) -> int:
        return self._size

    @classmethod
    def build(cls, pairs, unique: bool = False, enforce_unique: bool = True,
              t: int = 16) -> "BTree":
        """A tree holding ``pairs`` (a sequence of ``(key, value)``),
        equal to inserting them one by one in order: one stable sort,
        then the nodes packed level by level (see the module
        docstring).  ``enforce_unique`` as for :meth:`insert`: a unique
        tree raises the error the first duplicate in ``pairs`` order
        would raise, or else admits the duplicates."""
        tree = cls(unique, t)
        keys: list[tuple] = []
        values: list[list] = []
        for key, value in sorted(pairs, key=_first):
            if keys and keys[-1] == key:
                if unique:
                    if enforce_unique:
                        _raise_first_duplicate(pairs)
                    tree.admitted.add(keys[-1])
                values[-1].append(value)
            else:
                keys.append(key)
                values.append([value])
        tree._size = len(pairs)
        tree._root = _pack(keys, values, t)
        return tree

    # -- search -------------------------------------------------------------

    def search(self, key: tuple) -> list:
        """All values stored under ``key`` (empty list if absent)."""
        node = self._root
        while True:
            i = self._lower_bound(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                return list(node.values[i])
            if node.is_leaf:
                return []
            node = node.children[i]

    def contains(self, key: tuple) -> bool:
        return bool(self.search(key))

    def range(self, lo: tuple | None = None, hi: tuple | None = None,
              lo_inclusive: bool = True, hi_inclusive: bool = True):
        """Yield ``(key, value)`` pairs with lo <= key <= hi, in key order."""
        yield from self._range_walk(self._root, lo, hi,
                                    lo_inclusive, hi_inclusive)

    def items(self):
        """Yield every ``(key, value)`` pair in key order."""
        yield from self.range()

    def min_key(self) -> tuple | None:
        node = self._root
        if not node.keys:
            return None
        while not node.is_leaf:
            node = node.children[0]
        return node.keys[0]

    def max_key(self) -> tuple | None:
        node = self._root
        if not node.keys:
            return None
        while not node.is_leaf:
            node = node.children[-1]
        return node.keys[-1]

    # -- insert --------------------------------------------------------------

    def insert(self, key: tuple, value, enforce_unique: bool = True) -> None:
        """Insert ``value`` under ``key``.

        Raises :class:`~repro.errors.ConstraintError` if the index is
        unique and the key is already present.  Recovery passes
        ``enforce_unique=False``: repeating history can transiently
        re-create a key the tree already holds (the delete that resolves
        it replays later), so redo/undo appends instead of raising and
        uniqueness is re-validated once undo completes (see
        ``wal/recovery.py``) on the keys :attr:`admitted` names.
        """
        existing = self._find_payload(self._root, key)
        if existing is not None:
            if self.unique:
                if enforce_unique:
                    raise ConstraintError(
                        f"duplicate key {key!r} in unique index")
                self.admitted.add(key)
            existing.append(value)
            self._size += 1
            return
        root = self._root
        if len(root.keys) == 2 * self._t - 1:
            new_root = _Node()
            new_root.children.append(root)
            self._split_child(new_root, 0)
            self._root = new_root
        self._insert_nonfull(self._root, key, value)
        self._size += 1

    # -- delete --------------------------------------------------------------

    def delete(self, key: tuple, value=None) -> bool:
        """Remove ``value`` from ``key`` (or the whole key if value is None).

        Returns True if something was removed.
        """
        payload = self._find_payload(self._root, key)
        if payload is None:
            return False
        if value is not None:
            if value not in payload:
                return False
            payload.remove(value)
            self._size -= 1
            if payload:
                return True
        else:
            self._size -= len(payload)
        self._delete_key(self._root, key)
        if not self._root.keys and not self._root.is_leaf:
            self._root = self._root.children[0]
        return True

    # -- internals: search helpers ---------------------------------------------

    # ``bisect_left`` performs exactly the hand-written binary search this
    # used to be (same ``<`` probes, same insertion point), in C.
    _lower_bound = staticmethod(bisect_left)

    def _find_payload(self, node: _Node, key: tuple) -> list | None:
        while True:
            i = self._lower_bound(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                return node.values[i]
            if node.is_leaf:
                return None
            node = node.children[i]

    def _range_walk(self, node: _Node, lo, hi, lo_inc, hi_inc):
        def above_lo(key):
            if lo is None:
                return True
            return key >= lo if lo_inc else key > lo

        def below_hi(key):
            if hi is None:
                return True
            return key <= hi if hi_inc else key < hi

        if node.is_leaf:
            for key, payload in zip(node.keys, node.values):
                if above_lo(key) and below_hi(key):
                    for value in payload:
                        yield key, value
            return
        for i, key in enumerate(node.keys):
            if lo is None or key > lo or (lo_inc and key >= lo):
                yield from self._range_walk(node.children[i], lo, hi,
                                            lo_inc, hi_inc)
            if above_lo(key) and below_hi(key):
                for value in node.values[i]:
                    yield key, value
            if hi is not None and key > hi:
                return
        yield from self._range_walk(node.children[-1], lo, hi, lo_inc, hi_inc)

    # -- internals: insertion ---------------------------------------------------

    def _split_child(self, parent: _Node, index: int) -> None:
        t = self._t
        child = parent.children[index]
        sibling = _Node()
        mid_key = child.keys[t - 1]
        mid_val = child.values[t - 1]
        sibling.keys = child.keys[t:]
        sibling.values = child.values[t:]
        child.keys = child.keys[:t - 1]
        child.values = child.values[:t - 1]
        if not child.is_leaf:
            sibling.children = child.children[t:]
            child.children = child.children[:t]
        parent.keys.insert(index, mid_key)
        parent.values.insert(index, mid_val)
        parent.children.insert(index + 1, sibling)

    def _insert_nonfull(self, node: _Node, key: tuple, value) -> None:
        while True:
            i = self._lower_bound(node.keys, key)
            if node.is_leaf:
                node.keys.insert(i, key)
                node.values.insert(i, [value])
                return
            if len(node.children[i].keys) == 2 * self._t - 1:
                self._split_child(node, i)
                if key > node.keys[i]:
                    i += 1
                elif key == node.keys[i]:
                    # Key migrated up during the split; should not happen
                    # because presence was checked, but stay safe.
                    node.values[i].append(value)
                    return
            node = node.children[i]

    # -- internals: deletion --------------------------------------------------

    def _delete_key(self, node: _Node, key: tuple) -> None:
        t = self._t
        i = self._lower_bound(node.keys, key)
        if i < len(node.keys) and node.keys[i] == key:
            if node.is_leaf:
                node.keys.pop(i)
                node.values.pop(i)
                return
            left, right = node.children[i], node.children[i + 1]
            if len(left.keys) >= t:
                pred_key, pred_val = self._pop_max(left)
                node.keys[i], node.values[i] = pred_key, pred_val
            elif len(right.keys) >= t:
                succ_key, succ_val = self._pop_min(right)
                node.keys[i], node.values[i] = succ_key, succ_val
            else:
                self._merge_children(node, i)
                self._delete_key(left, key)
            return
        if node.is_leaf:
            return  # key absent
        child = node.children[i]
        if len(child.keys) < t:
            i = self._fill_child(node, i)
            child = node.children[i]
        self._delete_key(child, key)

    def _pop_max(self, node: _Node) -> tuple:
        while not node.is_leaf:
            if len(node.children[-1].keys) < self._t:
                i = self._fill_child(node, len(node.children) - 1)
                node = node.children[i]
            else:
                node = node.children[-1]
        return node.keys.pop(), node.values.pop()

    def _pop_min(self, node: _Node) -> tuple:
        while not node.is_leaf:
            if len(node.children[0].keys) < self._t:
                i = self._fill_child(node, 0)
                node = node.children[i]
            else:
                node = node.children[0]
        key = node.keys.pop(0)
        value = node.values.pop(0)
        return key, value

    def _fill_child(self, node: _Node, i: int) -> int:
        """Ensure child ``i`` has >= t keys; returns its (possibly new) index."""
        t = self._t
        if i > 0 and len(node.children[i - 1].keys) >= t:
            self._borrow_from_left(node, i)
            return i
        if i + 1 < len(node.children) and len(node.children[i + 1].keys) >= t:
            self._borrow_from_right(node, i)
            return i
        if i + 1 < len(node.children):
            self._merge_children(node, i)
            return i
        self._merge_children(node, i - 1)
        return i - 1

    @staticmethod
    def _borrow_from_left(node: _Node, i: int) -> None:
        child, left = node.children[i], node.children[i - 1]
        child.keys.insert(0, node.keys[i - 1])
        child.values.insert(0, node.values[i - 1])
        node.keys[i - 1] = left.keys.pop()
        node.values[i - 1] = left.values.pop()
        if not left.is_leaf:
            child.children.insert(0, left.children.pop())

    @staticmethod
    def _borrow_from_right(node: _Node, i: int) -> None:
        child, right = node.children[i], node.children[i + 1]
        child.keys.append(node.keys[i])
        child.values.append(node.values[i])
        node.keys[i] = right.keys.pop(0)
        node.values[i] = right.values.pop(0)
        if not right.is_leaf:
            child.children.append(right.children.pop(0))

    @staticmethod
    def _merge_children(node: _Node, i: int) -> None:
        child, right = node.children[i], node.children[i + 1]
        child.keys.append(node.keys.pop(i))
        child.values.append(node.values.pop(i))
        child.keys.extend(right.keys)
        child.values.extend(right.values)
        child.children.extend(right.children)
        node.children.pop(i + 1)


_first = itemgetter(0)


def _raise_first_duplicate(pairs) -> None:
    """Raise what inserting ``pairs`` one by one into a unique tree
    raises: the error of the first key already seen."""
    seen = set()
    for key, _value in pairs:
        if key in seen:
            raise ConstraintError(f"duplicate key {key!r} in unique index")
        seen.add(key)


def _pack(keys: list, values: list, t: int) -> _Node:
    """The root of a tree over sorted distinct ``keys`` (payloads
    ``values``), built bottom-up.  A level of ``m`` entries that does
    not fit one node becomes ``p`` nodes of ``t-1..2t-1`` entries with
    one separator between neighbours; the ``p-1`` separators are the
    next level's entries and the nodes its children, until a level
    fits the root."""
    children = None
    full = 2 * t - 1
    while len(keys) > full:
        m = len(keys)
        p = -(-(m + 1) // (full + 1))
        size, extra = divmod(m - p + 1, p)
        nodes, up_keys, up_values = [], [], []
        start = child = 0
        for j in range(p):
            stop = start + size + (j < extra)
            node = _Node(keys[start:stop], values[start:stop])
            if children is not None:
                node.children = children[child:child + stop - start + 1]
                child += stop - start + 1
            nodes.append(node)
            if stop < m:
                up_keys.append(keys[stop])
                up_values.append(values[stop])
            start = stop + 1
        keys, values, children = up_keys, up_values, nodes
    return _Node(keys, values, children)
