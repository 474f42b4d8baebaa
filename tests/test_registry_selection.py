"""Registry leases and quorum selection schemes."""

import random
from collections import Counter

import pytest

from evenlog.errors import InsufficientQuorums, InsufficientReplicas
from evenlog.quorum import Registry, SelectionScheme, form_quorums, select_quorums


class TestRegistry:
    def test_registered_replica_is_active(self):
        reg = Registry()
        reg.register("r1", t=0)
        reg.register("r2", t=10)
        assert reg.list_active(t=50) == {"r1", "r2"}
        assert Registry().list_active(t=0) == set()

    def test_eviction_after_horizon(self):
        reg = Registry()
        reg.register("r1", t=0)
        assert "r1" in reg.list_active(t=90)
        assert "r1" not in reg.list_active(t=91)

    def test_heartbeats_keep_membership_alive(self):
        # a heartbeat is a repeated register: it re-stamps the lease
        reg = Registry()
        reg.register("r1", t=0)
        reg.register("r2", t=0)
        for t in range(30, 3000, 30):
            reg.register("r1", t)
        assert reg.list_active(t=3000 + 60) == {"r1"}


class TestFormQuorums:
    def test_nine_replicas_three_groups_cover_all(self):
        groups = form_quorums(range(9), random.Random(0))
        assert len(groups) == 3
        assert sorted(m for g in groups for m in g) == list(range(9))

    def test_ten_replicas_leave_one_out(self):
        groups = form_quorums(range(10), random.Random(0))
        assert len(groups) == 3
        assert len({m for g in groups for m in g}) == 9

    def test_same_seed_same_grouping(self):
        a = form_quorums(range(12), random.Random(7))
        b = form_quorums(range(12), random.Random(7))
        assert a == b

    def test_too_few_replicas(self):
        with pytest.raises(InsufficientReplicas):
            form_quorums(range(2), random.Random(0))


class TestSelectQuorums:
    def test_vnos_draws_exactly_n_distinct(self):
        quorums = [(i, i + 100, i + 200) for i in range(8)]
        picks = select_quorums(SelectionScheme.VNOS, 5, quorums, 8, random.Random(1))
        assert len(picks) == 5
        assert len(set(picks)) == 5
        assert all(0 <= i < len(quorums) for i in picks)  # no fakes: one group per real segment

    def test_vnos_exhaustive_draw_selects_every_quorum(self):
        quorums = [(i,) * 3 for i in range(6)]
        picks = select_quorums(SelectionScheme.VNOS, 6, quorums, 6, random.Random(2))
        assert set(picks) == set(range(6))

    def test_vnos_uniform_selection_frequency(self):
        # k=1 of N=5: each quorum should be hit ~1/5 of the time
        quorums = [(i,) * 3 for i in range(5)]
        rng = random.Random(33)
        hits = Counter()
        trials = 100_000
        for _ in range(trials):
            (pick,) = select_quorums(SelectionScheme.VNOS, 1, quorums, 5, rng)
            hits[pick] += 1
        for index in range(5):
            assert abs(hits[index] / trials - 0.2) < 0.01

    def test_fnos_pads_with_fakes_to_k(self):
        quorums = [(i,) * 3 for i in range(9)]
        picks = select_quorums(SelectionScheme.FNOS, 2, quorums, 5, random.Random(3))
        assert len(picks) == 5
        assert len(set(picks)) == 5
        # entries from n_real on carry the fakes: three groups no real segment uses
        reals, fakes = picks[:2], picks[2:]
        assert len(fakes) == 3 and not set(reals) & set(fakes)

    def test_fnos_always_k_regardless_of_write_size(self):
        quorums = [(i,) * 3 for i in range(9)]
        rng = random.Random(4)
        for n_real in range(1, 6):
            assert len(select_quorums(SelectionScheme.FNOS, n_real, quorums, 5, rng)) == 5

    def test_insufficient_quorums(self):
        quorums = [(0, 1, 2), (3, 4, 5)]
        with pytest.raises(InsufficientQuorums):
            select_quorums(SelectionScheme.VNOS, 3, quorums, 8, random.Random(0))
        with pytest.raises(InsufficientQuorums):
            select_quorums(SelectionScheme.FNOS, 1, quorums, 3, random.Random(0))
        with pytest.raises(InsufficientQuorums):
            select_quorums(SelectionScheme.FNOS, 4, quorums + [(6, 7, 8)], 3, random.Random(0))

    def test_vnos_write_over_k_max_raises_before_drawing(self):
        # enough candidates for 6 segments, but a write may have at most 4
        quorums = [(i,) * 3 for i in range(10)]
        rng = random.Random(6)
        state = rng.getstate()
        with pytest.raises(InsufficientQuorums):
            select_quorums(SelectionScheme.VNOS, 6, quorums, 4, rng)
        assert rng.getstate() == state

    def test_placement_order_matches_segment_order(self):
        quorums = [(i,) * 3 for i in range(6)]
        picks = select_quorums(SelectionScheme.FNOS, 3, quorums, 6, random.Random(5))
        # entry i carries segment i, in the order drawn; reals come first
        assert picks == random.Random(5).sample(range(6), 6)
