"""Tests for the set-associative and direct-mapped tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.tables import DirectMappedTable, SetAssociativeTable, _Way


class TestSetAssociativeTable:
    def test_miss_then_hit(self):
        t = SetAssociativeTable(16, 2)
        assert t.lookup(5) is None
        t.insert(5, "a")
        assert t.lookup(5) == "a"

    def test_replace_in_place(self):
        t = SetAssociativeTable(16, 2)
        t.insert(5, "a")
        assert t.insert(5, "b") is None  # no eviction reported
        assert t.lookup(5) == "b"
        assert t.occupancy() == 1

    def test_lru_eviction(self):
        t = SetAssociativeTable(16, 2)  # 8 sets
        a, b, c = 3, 3 + 8, 3 + 16     # same set (index = key % 8)
        t.insert(a, "a")
        t.insert(b, "b")
        t.lookup(a)                     # make "a" most recent
        evicted = t.insert(c, "c")
        assert evicted == "b"
        assert t.lookup(a) == "a"
        assert t.lookup(b) is None
        assert t.lookup(c) == "c"

    def test_direct_mapped_degenerate(self):
        t = SetAssociativeTable(4, 1)
        t.insert(1, "x")
        assert t.insert(5, "y") == "x"  # same set, 1 way

    def test_different_sets_dont_conflict(self):
        t = SetAssociativeTable(16, 2)
        for key in range(8):
            t.insert(key, key)
        assert t.occupancy() == 8
        for key in range(8):
            assert t.lookup(key) == key

    def test_get_or_insert(self):
        t = SetAssociativeTable(16, 2)
        entry, hit = t.get_or_insert(9, list)
        assert not hit and entry == []
        entry2, hit2 = t.get_or_insert(9, list)
        assert hit2 and entry2 is entry

    def test_invalidate(self):
        t = SetAssociativeTable(16, 2)
        t.insert(7, "z")
        assert t.invalidate(7)
        assert t.lookup(7) is None
        assert not t.invalidate(7)

    def test_clear(self):
        t = SetAssociativeTable(16, 2)
        for key in range(10):
            t.insert(key, key)
        t.clear()
        assert t.occupancy() == 0
        assert t.hits == 0 and t.misses == 0

    def test_iteration_yields_keys(self):
        t = SetAssociativeTable(16, 2)
        keys = {100, 205, 313}
        for key in keys:
            t.insert(key, key * 2)
        assert {k for k, _ in t} == keys
        assert all(v == k * 2 for k, v in t)

    def test_statistics(self):
        t = SetAssociativeTable(16, 2)
        t.lookup(1)
        t.insert(1, "a")
        t.lookup(1)
        assert t.misses == 1 and t.hits == 1

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeTable(12, 2)       # not a power of two
        with pytest.raises(ValueError):
            SetAssociativeTable(16, 3)       # ways doesn't divide
        with pytest.raises(ValueError):
            SetAssociativeTable(16, 0)

    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.integers(0, 500), st.integers()), max_size=150))
    def test_full_associative_matches_dict(self, ops):
        """A table with one set and many ways behaves like a bounded dict."""
        t = SetAssociativeTable(64, 64)
        model = {}
        for key, value in ops:
            t.insert(key, value)
            model[key] = value
            if len(model) <= 64:
                assert t.lookup(key) == model[key]

    @settings(max_examples=50)
    @given(st.lists(st.integers(0, 1000), max_size=200))
    def test_occupancy_bounded(self, keys):
        t = SetAssociativeTable(16, 4)
        for key in keys:
            t.insert(key, key)
        assert t.occupancy() <= 16


class TestDirectMappedTable:
    def test_lookup_empty(self):
        t = DirectMappedTable(8)
        assert t.lookup(3) is None

    def test_insert_lookup(self):
        t = DirectMappedTable(8)
        t.insert(3, "x")
        assert t.lookup(3) == "x"

    def test_aliasing(self):
        t = DirectMappedTable(8)
        t.insert(3, "x")
        assert t.lookup(11) == "x"  # 11 & 7 == 3: same slot

    def test_conflict_write_counted(self):
        t = DirectMappedTable(8)
        t.insert(3, "x")
        t.insert(11, "y")
        assert t.conflict_writes == 1
        assert t.lookup(3) == "y"

    def test_index_of(self):
        t = DirectMappedTable(8)
        assert t.index_of(0b10101) == 0b101

    def test_get_or_insert(self):
        t = DirectMappedTable(8)
        entry, existed = t.get_or_insert(2, dict)
        assert not existed
        entry2, existed2 = t.get_or_insert(2, dict)
        assert existed2 and entry2 is entry

    def test_clear_and_iter(self):
        t = DirectMappedTable(8)
        t.insert(1, "a")
        t.insert(2, "b")
        assert dict(iter(t)) == {1: "a", 2: "b"}
        t.clear()
        assert len(t) == 0

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            DirectMappedTable(10)

    @given(st.lists(st.tuples(st.integers(0, 7), st.integers()), max_size=100))
    def test_matches_array_model(self, ops):
        t = DirectMappedTable(8)
        model = [None] * 8
        for key, value in ops:
            t.insert(key, value)
            model[key] = value
        for slot in range(8):
            assert t.lookup(slot) == model[slot]


def _eager(table):
    """Allocate every way up front: the layout before lazy allocation."""
    table._sets = [
        [_Way() for _ in range(table.ways)] for _ in range(table.num_sets)
    ]
    return table


#: Scripted SetAssociativeTable operations over a few colliding keys.
_TABLE_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["insert", "lookup", "peek", "invalidate",
                                   "get_or_insert"]),
                  st.integers(0, 40)),
        st.just(("clear", 0)),
    ),
    max_size=80,
)


def _apply(table, op, key, step):
    if op == "insert":
        return table.insert(key, (key, step))
    if op == "lookup":
        return table.lookup(key)
    if op == "peek":
        return table.peek(key)
    if op == "invalidate":
        return table.invalidate(key)
    if op == "get_or_insert":
        return table.get_or_insert(key, lambda: (key, step))
    return table.clear()


def _observable(table):
    return (list(table), table.occupancy(), table.hits, table.misses,
            table.evictions, table._clock)


class TestLazySets:
    def test_fresh_table_allocates_no_ways(self):
        t = SetAssociativeTable(4096, 2)
        assert all(len(ways) == 0 for ways in t._sets)
        assert t.lookup(123) is None and t.peek(123) is None
        assert not t.invalidate(123)
        assert t.occupancy() == 0 and list(t) == []
        assert all(len(ways) == 0 for ways in t._sets)

    def test_insert_allocates_only_the_way_it_fills(self):
        t = SetAssociativeTable(64, 4)
        t.insert(5, "a")
        t.insert(5 + 16, "b")
        assert [i for i, ways in enumerate(t._sets) if ways] == [5]
        assert [w.entry for w in t._sets[5]] == ["a", "b"]

    def test_clear_releases_sets(self):
        t = SetAssociativeTable(64, 4)
        for key in range(40):
            t.insert(key, key)
        t.clear()
        assert all(len(ways) == 0 for ways in t._sets)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([(16, 1), (16, 2), (32, 4), (8, 8)]), _TABLE_OPS)
    def test_matches_eager_layout(self, geometry, ops):
        lazy = SetAssociativeTable(*geometry)
        eager = _eager(SetAssociativeTable(*geometry))
        for step, (op, key) in enumerate(ops):
            assert _apply(lazy, op, key, step) == _apply(eager, op, key, step)
            assert _observable(lazy) == _observable(eager)
