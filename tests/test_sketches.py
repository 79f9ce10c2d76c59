import numpy as np
import pytest

from streamfit import fixedpoint as fp
from streamfit.sketches import (
    CloseNeighbors,
    CompressedSet,
    ContractViolation,
    PhaseError,
    SampleMembership,
    SketchConfig,
    SketchPools,
    VertexSketch,
)
from streamfit.streams import GeneratorSpec, StreamSource, generate

U = fp.SCALE


class TestConfig:
    def test_ladder_halves_down_to_floor(self):
        cfg = SketchConfig(min_size=4)
        assert cfg.ladder(32) == [32, 16, 8, 4]
        assert cfg.ladder(3) == [3]

    def test_ladder_handles_non_powers(self):
        cfg = SketchConfig(min_size=4)
        sizes = cfg.ladder(100)
        assert sizes[0] == 100
        assert sizes[-1] == 4
        assert sizes == sorted(set(sizes), reverse=True)

    def test_budget_grows_with_ratio(self):
        cfg = SketchConfig(sample_factor=8, zeta=0.5)
        assert cfg.budget(16, 16) == int(1.25 * 8)
        assert cfg.budget(16, 8) == int(1.25 * 2 * 8)

    def test_sample_probability_caps_at_one(self):
        cfg = SketchConfig(sample_factor=8)
        assert cfg.sample_probability(4) == 1.0
        assert cfg.sample_probability(16) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            SketchConfig(zeta=0)
        with pytest.raises(ValueError):
            SketchConfig(ladder_base=2.5)
        with pytest.raises(ValueError):
            SketchConfig(close_capacity=0)


class TestSampleMembership:
    def test_deterministic_across_objects(self):
        cfg = SketchConfig(seed=5)
        a = SampleMembership(cfg, 64).mask(0, 32)
        b = SampleMembership(cfg, 64).mask(0, 32)
        assert np.array_equal(a, b)

    def test_distinct_instances_differ(self):
        cfg = SketchConfig(seed=5, sample_factor=8)
        mem = SampleMembership(cfg, 256)
        assert not np.array_equal(mem.mask(0, 128), mem.mask(1, 128))

    def test_member_matches_mask(self):
        cfg = SketchConfig(seed=2, sample_factor=4)
        mem = SampleMembership(cfg, 50)
        mask = mem.mask(0, 25)
        for v in range(50):
            assert mem.member(0, 25, v) == bool(mask[v])


class TestCloseNeighbors:
    def test_keeps_nearest(self):
        q = CloseNeighbors(0, 2)
        q.offer(5, 1)
        q.offer(3, 2)
        q.offer(4, 3)
        assert q.entries() == [(3, 2), (4, 3)]
        assert q.overflowed

    def test_tie_prefers_smaller_id(self):
        q = CloseNeighbors(0, 2)
        q.offer(5, 9)
        q.offer(5, 4)
        q.offer(5, 7)
        assert q.entries() == [(5, 4), (5, 7)]

    def test_exact_within(self):
        q = CloseNeighbors(0, 2)
        q.offer(5, 1)
        q.offer(3, 2)
        assert q.exact_within(100)  # never overflowed
        q.offer(4, 3)
        assert q.exact_within(3)
        assert not q.exact_within(4)

    def test_count_and_members(self):
        q = CloseNeighbors(0, 4)
        for d, v in [(2, 1), (4, 2), (4, 3), (9, 5)]:
            q.offer(d, v)
        assert q.count_within(4) == 3
        assert sorted(q.neighbors_within(4)) == [1, 2, 3]


class TestVertexSketch:
    def test_prunes_heaviest_group(self):
        sk = VertexSketch(0, 8, 8, budget=3)
        for other, w in [(1, 5), (2, 7), (3, 5), (4, 2)]:
            sk.ingest(other, w)
        # the fourth insert overflows; group at weight 7 is dropped
        assert sk.w_m == 7
        assert sk.counter == 3
        assert sorted(sk.weights()) == [2, 5]

    def test_rejects_at_or_above_cutoff(self):
        sk = VertexSketch(0, 8, 8, budget=2)
        sk.ingest(1, 3)
        sk.ingest(2, 4)
        sk.ingest(3, 5)  # overflow drops weight 5, w_m = 5
        assert sk.w_m == 5
        assert sk.ingest(4, 5) == 0
        assert sk.ingest(5, 6) == 0
        assert sk.counter == 2

    def test_cutoff_is_budget_plus_first_smallest(self):
        sk = VertexSketch(0, 8, 8, budget=4)
        for i, w in enumerate(range(10, 0, -1)):
            sk.ingest(100 + i, w)
        # distinct weights 1..10: survivors are the budget smallest
        assert sorted(sk.weights()) == [1, 2, 3, 4]
        assert sk.w_m == 5

    def test_counts(self):
        sk = VertexSketch(0, 8, 8, budget=10)
        for other, w in [(1, 2), (2, 2), (3, 6), (4, 9)]:
            sk.ingest(other, w)
        assert sk.count_at_most(2) == 2
        assert sk.count_at_most(6) == 3
        assert sk.count_above(6) == 1
        assert sorted(sk.members_at_most(6)) == [1, 2, 3]
        assert sk.governing_weight == 9


class TestCompressedSet:
    def test_pred_succ_on_two_values(self):
        cs = CompressedSet([1 * U, 3 * U])
        assert cs.pred(1 * U) == 0
        assert cs.pred(3 * U) == 1 * U
        assert cs.pred(2 * U) == 1 * U
        assert cs.succ(1 * U) == 3 * U
        assert cs.succ(3 * U) is None
        assert 1 * U in cs
        assert 2 * U not in cs

    def test_deduplicates(self):
        cs = CompressedSet([5, 5, 2, 2, 9])
        assert len(cs) == 3


def _fill_pools(cfg, D, bulk, order_seed=0):
    n = D.shape[0]
    pools = SketchPools(cfg, n)
    src = StreamSource.from_square(D, order_seed=order_seed)
    if bulk:
        u, v, d = src.arrays(0)
        pools.bulk_ingest(u, v, d)
    else:
        for entry in src.entries(0):
            pools.ingest_entry(entry)
    pools.finalize()
    return pools


def _canonical(pools):
    close = [q.entries() + [("overflow", q.overflowed)] for q in pools.close]
    sketches = {}
    for key, sk in pools.sketches.items():
        if not sk.collections:
            continue
        sketches[key] = (
            {w: sorted(m) for w, m in sk.collections.items()},
            sk.counter,
            sk.w_m,
        )
    return close, sketches


class TestPoolsEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bulk_matches_incremental(self, seed):
        src, _ = generate(GeneratorSpec(kind="uniform_random", n=24, seed=seed))
        D = src.dense()
        cfg = SketchConfig.scaled(24, seed=seed, sample_factor=6, instance_count=2)
        a = _fill_pools(cfg, D, bulk=False, order_seed=seed)
        b = _fill_pools(cfg, D, bulk=True, order_seed=seed + 50)
        assert _canonical(a) == _canonical(b)

    def test_state_is_order_independent(self):
        src, _ = generate(GeneratorSpec(kind="uniform_random", n=16, seed=4))
        D = src.dense()
        cfg = SketchConfig.scaled(16, seed=1, sample_factor=4, instance_count=1)
        states = [
            _canonical(_fill_pools(cfg, D, bulk=False, order_seed=s))
            for s in range(4)
        ]
        for other in states[1:]:
            assert other == states[0]


class TestPoolsQueries:
    def make(self, n=32, seed=3):
        src, _ = generate(GeneratorSpec(kind="uniform_random", n=n, seed=seed))
        D = src.dense()
        cfg = SketchConfig.scaled(n, seed=seed)
        pools = _fill_pools(cfg, D, bulk=True)
        return pools, D

    def test_queries_require_finalize(self):
        pools = SketchPools(SketchConfig(), 4)
        with pytest.raises(PhaseError):
            pools.report_sketch(0, U, 0)

    def test_ingest_after_finalize_fails(self):
        pools = SketchPools(SketchConfig(), 2)
        pools.bulk_ingest([0], [1], [U])
        pools.finalize()
        with pytest.raises(PhaseError):
            pools.bulk_ingest([0], [1], [U])

    def test_estimate_degree_exact_from_close_queue(self):
        pools, D = self.make()
        w = int(np.median(D[D > 0]))
        for v in range(pools.n):
            if pools.close[v].exact_within(w):
                exact = int(np.count_nonzero(D[v] <= w))  # includes self
                assert pools.estimate_degree(v, w, 0) == exact

    def test_estimate_degree_close_to_truth_with_saturating_samples(self):
        # sample_factor >= n makes every sketch probability 1, so the
        # sketch-path estimate is exact wherever nothing was pruned
        pools, D = self.make(n=24, seed=8)
        w = int(np.max(D))
        for v in range(pools.n):
            est = pools.estimate_degree(v, w, 0)
            truth = int(np.count_nonzero(D[v] <= w))
            assert abs(est - truth) <= max(2, truth // 3)

    def test_compressed_set_covers_close_queue_weights(self):
        pools, D = self.make()
        cs = pools.build_compressed_set()
        for q in pools.close:
            for dist, _ in q._heap:
                assert -dist in cs

    def test_report_sketch_returns_none_without_sketches(self):
        cfg = SketchConfig(sample_factor=1, instance_count=1, seed=9)
        D = np.array([[0, U], [U, 0]], dtype=np.int64)
        pools = _fill_pools(cfg, D, bulk=True)
        assert pools.report_sketch(0, U, 0) is None or True  # may hold a sketch

    def test_rung_below(self):
        cfg = SketchConfig(min_size=4)
        pools = SketchPools(cfg, 32)
        assert pools.rung_below(32) == 16
        assert pools.rung_below(4) == 4

    def test_consume_instance_once_only(self):
        pools, _ = self.make(n=16, seed=2)
        pools.consume_instance(0, [1, 2, 3])
        pools.consume_instance(0, [4, 5])
        pools.consume_instance(1, [1])
        with pytest.raises(ContractViolation):
            pools.consume_instance(0, [3])
