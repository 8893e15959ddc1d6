"""Tests for the Link Table: tags, PF bits, associativity (Sections 3.4-3.5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors.link_table import LinkEntry, LinkTable, LinkTableConfig
from repro.telemetry.instrumentation import AttributionProbe


def small_lt(**overrides):
    params = dict(entries=16, ways=1, tag_bits=4, pf_bits=0)
    params.update(overrides)
    return LinkTable(LinkTableConfig(**params))


class TestGeometry:
    def test_index_and_history_bits(self):
        cfg = LinkTableConfig(entries=4096, ways=1, tag_bits=8)
        assert cfg.index_bits == 12
        assert cfg.history_bits == 20

    def test_associative_geometry(self):
        cfg = LinkTableConfig(entries=4096, ways=4, tag_bits=8)
        assert cfg.index_bits == 10

    def test_assoc_requires_tags(self):
        with pytest.raises(ValueError):
            LinkTableConfig(entries=16, ways=2, tag_bits=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkTableConfig(entries=12)
        with pytest.raises(ValueError):
            LinkTableConfig(entries=16, ways=3)


class TestBasicLinks:
    def test_empty_lookup(self):
        assert small_lt().lookup(5) == (None, False)

    def test_update_then_lookup(self):
        lt = small_lt()
        lt.update(5, 0x2000)
        assert lt.lookup(5) == (0x2000, True)

    def test_no_pf_overwrites_immediately(self):
        lt = small_lt()
        lt.update(5, 0x2000)
        lt.update(5, 0x3000)
        assert lt.lookup(5)[0] == 0x3000

    def test_occupancy(self):
        lt = small_lt()
        lt.update(1, 0x10)
        lt.update(2, 0x20)
        assert lt.occupancy() == 2

    def test_clear(self):
        lt = small_lt()
        lt.update(1, 0x10)
        lt.clear()
        assert lt.occupancy() == 0
        assert lt.lookup(1) == (None, False)


class TestTags:
    def test_tag_mismatch_reports_low_confidence(self):
        lt = small_lt(tag_bits=4)
        history_a = 0b0001_0101      # tag 1, index 5
        history_b = 0b0010_0101      # tag 2, same index
        lt.update(history_a, 0x2000)
        link, tag_ok = lt.lookup(history_b)
        assert link == 0x2000        # a prediction is still offered
        assert not tag_ok            # but not speculation-worthy

    def test_tag_match_after_conflict_overwrite(self):
        lt = small_lt(tag_bits=4)
        lt.update(0b0001_0101, 0x2000)
        lt.update(0b0010_0101, 0x3000)
        assert lt.lookup(0b0010_0101) == (0x3000, True)
        assert lt.lookup(0b0001_0101) == (0x3000, False)

    def test_no_tags_always_tag_ok(self):
        lt = small_lt(tag_bits=0)
        lt.update(5, 0x2000)
        assert lt.lookup(5 + 16)[1]  # aliases, still "ok" without tags

    def test_tag_mismatch_statistics(self):
        lt = small_lt(tag_bits=4)
        lt.update(0b0001_0101, 0x2000)
        lt.lookup(0b0010_0101)
        assert lt.tag_mismatches == 1


class TestSetAssociativeLT:
    def test_two_contexts_coexist(self):
        lt = LinkTable(LinkTableConfig(entries=16, ways=2, tag_bits=4, pf_bits=0))
        # Same set (index bits 0-2), different tags.
        h1 = (0b0001 << 3) | 0b101
        h2 = (0b0010 << 3) | 0b101
        lt.update(h1, 0x111)
        lt.update(h2, 0x222)
        assert lt.lookup(h1) == (0x111, True)
        assert lt.lookup(h2) == (0x222, True)

    def test_lru_eviction_within_set(self):
        lt = LinkTable(LinkTableConfig(entries=16, ways=2, tag_bits=4, pf_bits=0))
        h = [(tag << 3) | 0b001 for tag in (1, 2, 3)]
        lt.update(h[0], 0xA)
        lt.update(h[1], 0xB)
        lt.update(h[0], 0xA)       # refresh h0
        lt.update(h[2], 0xC)       # evicts h1
        assert lt.lookup(h[0]) == (0xA, True)
        assert not lt.lookup(h[1])[1]
        assert lt.lookup(h[2]) == (0xC, True)


class TestPFBits:
    def test_link_needs_two_consistent_updates(self):
        lt = small_lt(pf_bits=4)
        lt.update(5, 0x2010)
        assert lt.lookup(5) == (None, False)   # first sighting: PF only
        lt.update(5, 0x2010)
        assert lt.lookup(5)[0] == 0x2010       # second sighting: recorded

    def test_alternating_values_never_recorded(self):
        """Irregular loads cannot pollute the LT (Section 3.5)."""
        lt = small_lt(pf_bits=4)
        for value in (0x2010, 0x2020, 0x2030, 0x2010, 0x2020):
            lt.update(5, value)
        assert lt.lookup(5) == (None, False)
        assert lt.pf_rejections > 0

    def test_hysteresis_against_single_blip(self):
        lt = small_lt(pf_bits=4)
        lt.update(5, 0x2010)
        lt.update(5, 0x2010)      # recorded
        lt.update(5, 0x2020)      # blip: PF updated, link kept
        assert lt.lookup(5)[0] == 0x2010
        lt.update(5, 0x2020)      # seen twice: now replaced
        assert lt.lookup(5)[0] == 0x2020

    def test_pf_bits_compare_bits_2_to_5(self):
        lt = small_lt(pf_bits=4)
        # 0x2010 and 0x2050 differ in bit 6 only -> same PF bits (2..5).
        lt.update(5, 0x2010)
        lt.update(5, 0x2050)
        assert lt.lookup(5)[0] == 0x2050  # PF matched, link written

    def test_decoupled_pf_table(self):
        lt = LinkTable(LinkTableConfig(
            entries=16, ways=1, tag_bits=4, pf_bits=4,
            pf_decoupled=True, pf_table_entries=64,
        ))
        # Two histories sharing an LT slot but with distinct extended
        # indices keep separate PF state.
        h1 = (0b0001 << 4) | 0b0101
        h2 = (0b0010 << 4) | 0b0101
        lt.update(h1, 0x2010)
        lt.update(h2, 0x3020)
        lt.update(h1, 0x2010)
        assert lt.lookup(h1)[0] == 0x2010

    def test_decoupled_pf_table_validation(self):
        with pytest.raises(ValueError):
            LinkTable(LinkTableConfig(
                entries=16, pf_decoupled=True, pf_table_entries=60,
            ))

    def test_link_writes_counted(self):
        lt = small_lt(pf_bits=4)
        lt.update(5, 0x2010)
        lt.update(5, 0x2010)
        assert lt.link_writes == 1


def _eager(lt):
    """Allocate every way up front: the layout before lazy allocation."""
    lt._sets = [
        [LinkEntry() for _ in range(lt.config.ways)]
        for _ in range(lt.num_sets)
    ]
    return lt


def _observable(lt):
    return (lt.dump(), lt.occupancy(), lt.lookups, lt.tag_mismatches,
            lt.pf_rejections, lt.link_writes, lt._clock,
            None if lt._pf_table is None else list(lt._pf_table))


_LT_CONFIGS = [
    dict(entries=16, ways=1, tag_bits=0, pf_bits=0),
    dict(entries=16, ways=1, tag_bits=3, pf_bits=2),
    dict(entries=16, ways=4, tag_bits=3, pf_bits=2),
    dict(entries=16, ways=2, tag_bits=2, pf_bits=2, pf_decoupled=True,
         pf_table_entries=64),
]

#: Scripted updates/lookups over histories that collide in a small LT,
#: with values whose PF bits (bits 2..3) repeat often.
_LT_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("update"), st.integers(0, 255),
                  st.sampled_from([0x10, 0x14, 0x20, 0x24, 0x30])),
        st.tuples(st.just("lookup"), st.integers(0, 255), st.just(0)),
        st.just(("clear", 0, 0)),
    ),
    max_size=80,
)


class TestLazySets:
    def test_fresh_table_allocates_no_ways(self):
        lt = LinkTable()
        assert all(len(ways) == 0 for ways in lt._sets)
        assert lt.dump() == [] and lt.occupancy() == 0

    def test_untagged_lookup_on_unwritten_set_is_a_miss(self):
        lt = small_lt(tag_bits=0)
        probe = AttributionProbe()
        lt.probe = probe
        assert lt.lookup(5) == (None, False)
        assert probe.lt_misses == 1
        assert lt.lookups == 1 and lt.tag_mismatches == 0
        assert all(len(ways) == 0 for ways in lt._sets)

    def test_update_allocates_only_the_way_it_claims(self):
        lt = small_lt(ways=2, tag_bits=2)
        lt.update(3, 0x10)
        assert [i for i, ways in enumerate(lt._sets) if ways] == [3]
        assert len(lt._sets[3]) == 1
        lt.clear()
        assert all(len(ways) == 0 for ways in lt._sets)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(range(len(_LT_CONFIGS))), _LT_OPS)
    def test_matches_eager_layout(self, which, ops):
        config = LinkTableConfig(**_LT_CONFIGS[which])
        lazy, eager = LinkTable(config), _eager(LinkTable(config))
        lazy.probe, eager.probe = AttributionProbe(), AttributionProbe()
        for op, history, value in ops:
            if op == "update":
                assert lazy.update(history, value) == eager.update(history, value)
            elif op == "lookup":
                assert lazy.lookup(history) == eager.lookup(history)
            else:
                lazy.clear()
                eager.clear()
            assert _observable(lazy) == _observable(eager)
            assert lazy.probe.as_dict() == eager.probe.as_dict()
