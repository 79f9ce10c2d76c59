import heapq

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from streamfit import fixedpoint as fp
from streamfit.sketches import (
    CompressedSet,
    ContractViolation,
    PhaseError,
    SketchConfig,
    SketchPools,
    sorted_distinct,
)
from streamfit.streams import GeneratorSpec, StreamSource, generate

U = fp.SCALE


class CloseNeighbors:
    """Reference close queue for one owner, fed entry by entry: a bounded
    max-heap of the nearest neighbours, ties broken by the smaller id."""

    __slots__ = ("owner", "capacity", "_heap", "overflowed")

    def __init__(self, owner, capacity):
        self.owner = owner
        self.capacity = capacity
        self._heap = []  # max-heap via negated (distance, neighbor)
        self.overflowed = False

    def offer(self, d: int, neighbor: int):
        item = (-d, -neighbor)
        if len(self._heap) < self.capacity:
            heapq.heappush(self._heap, item)
            return
        self.overflowed = True
        if item > self._heap[0]:
            heapq.heapreplace(self._heap, item)

    def exact_within(self, w: int) -> bool:
        """True when the queue provably holds every neighbor at weight w."""
        if not self.overflowed:
            return True
        return -self._heap[0][0] > w

    def count_within(self, w: int) -> int:
        return sum(1 for nd, _ in self._heap if -nd <= w)

    def neighbors_within(self, w: int):
        return [-nb for nd, nb in self._heap if -nd <= w]

    def entries(self):
        return sorted((-nd, -nb) for nd, nb in self._heap)


class VertexSketch:
    """Reference sketch for one (owner, s, s') triple, fed entry by entry:
    weight-grouped sample collections that drop the heaviest group while
    the total exceeds the budget, and reject weights at or above the last
    dropped weight w_m."""

    __slots__ = ("owner", "s", "s_prime", "budget", "collections", "counter", "w_m")

    def __init__(self, owner, s, s_prime, budget):
        self.owner = owner
        self.s = s
        self.s_prime = s_prime
        self.budget = budget
        self.collections: dict[int, list] = {}
        self.counter = 0
        self.w_m = 0

    def ingest(self, other: int, w: int) -> int:
        """Offer one sampled edge; returns the change in retained count."""
        if self.w_m != 0 and w >= self.w_m:
            return 0
        self.collections.setdefault(w, []).append(other)
        self.counter += 1
        delta = 1
        while self.counter > self.budget:
            top = max(self.collections)
            dropped = self.collections.pop(top)
            self.w_m = top
            self.counter -= len(dropped)
            delta -= len(dropped)
        return delta

    @property
    def governing_weight(self):
        return max(self.collections) if self.collections else None

    def count_at_most(self, w: int) -> int:
        return sum(len(v) for k, v in self.collections.items() if k <= w)

    def count_above(self, w: int) -> int:
        return sum(len(v) for k, v in self.collections.items() if k > w)

    def weights(self):
        return list(self.collections.keys())


class ReferencePools:
    """Entry-by-entry sketch state and its queries, the reference the CSR
    store of `SketchPools` is checked against: one `VertexSketch` per
    (instance, owner, s, s'), fed in stream order."""

    def __init__(self, config, n):
        layout = SketchPools(config, n)
        self.config = config
        self.n = n
        self.sizes = layout.sizes
        self.pairs = layout.pairs
        self.masks = layout.masks
        self.close = [CloseNeighbors(v, config.close_capacity) for v in range(n)]
        self.sketches = {}

    def ingest_entry(self, u, v, d):
        for owner, other in ((u, v), (v, u)):
            self.close[owner].offer(d, other)
            for instance in range(self.config.instance_count):
                for s, sp in self.pairs:
                    if not self.masks[(instance, sp)][other]:
                        continue
                    key = (instance, owner, s, sp)
                    sk = self.sketches.get(key)
                    if sk is None:
                        sk = VertexSketch(owner, s, sp, self.config.budget(s, sp))
                        self.sketches[key] = sk
                    sk.ingest(other, d)

    def governing_ladder(self, v, instance):
        out = []
        for s in self.sizes:
            sk = self.sketches.get((instance, v, s, s))
            if sk is not None and sk.collections:
                out.append((sk.governing_weight, s, sk))
        out.sort(key=lambda t: (t[0], t[1]))
        return out

    def report_sketch(self, v, w, instance):
        ladder = self.governing_ladder(v, instance)
        if not ladder:
            return None
        upper = next((t for t in ladder if t[0] >= w), None)
        below = [t for t in ladder if t[0] < w]
        lower = None
        if below:
            best_gw = max(t[0] for t in below)
            lower = min((t for t in below if t[0] == best_gw), key=lambda t: t[1])
        if upper is not None:
            heavier = upper[2].count_above(w)
            if heavier < 4 * self.config.zeta * self.config.sample_factor:
                return upper
        return lower if lower is not None else upper

    def estimate_degree(self, v, w, instance):
        queue = self.close[v]
        if queue.exact_within(w):
            return queue.count_within(w) + 1
        reported = self.report_sketch(v, w, instance)
        if reported is None:
            return queue.count_within(w) + 1
        sk = reported[2]
        prob = self.config.sample_probability(sk.s_prime)
        return int(round(sk.count_at_most(w) / prob)) + 1

    def close_count(self, v, w):
        return self.close[v].count_within(w)

    def close_exact(self, v, w):
        return self.close[v].exact_within(w)

    def compressed_weights(self):
        weights = {-dist for queue in self.close for dist, _ in queue._heap}
        for sk in self.sketches.values():
            weights.update(sk.weights())
        return sorted(weights)


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
            SketchConfig(close_capacity=0)


class TestSampleMasks:
    """`SketchPools.masks` holds the sample R_{s'} of every (instance, s'),
    drawn when the pools are built."""

    def test_deterministic_across_objects(self):
        cfg = SketchConfig(seed=5)
        a = SketchPools(cfg, 64).masks[(0, 32)]
        b = SketchPools(cfg, 64).masks[(0, 32)]
        assert np.array_equal(a, b)

    def test_distinct_instances_differ(self):
        cfg = SketchConfig(seed=5, sample_factor=8)
        masks = SketchPools(cfg, 256).masks
        assert not np.array_equal(masks[(0, 128)], masks[(1, 128)])

    def test_drawn_at_construction_and_fixed_by_the_pass(self):
        n = 40
        D = generate(GeneratorSpec(kind="uniform_random", n=n, seed=3))[0].dense()
        cfg = SketchConfig(sample_factor=4, instance_count=3, seed=9)
        built = SketchPools(cfg, n)
        expected = {(i, sp) for i in range(cfg.instance_count) for sp in built.sizes}
        assert set(built.masks) == expected
        assert all(m.dtype == bool and m.shape == (n,) for m in built.masks.values())
        assert not all(m.all() for m in built.masks.values())

        def same(a, b):
            return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)

        # the pass in stored order, then permuted
        for order_seed in (None, 4):
            pools = SketchPools(cfg, n)
            before = {key: mask.copy() for key, mask in pools.masks.items()}
            assert same(before, built.masks)
            pools.bulk_ingest(*StreamSource.from_square(D, order_seed=order_seed).arrays())
            assert same(pools.masks, before)


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
        assert sk.governing_weight == 9


class TestCompressedSet:
    def test_pred_on_two_values(self):
        cs = CompressedSet([1 * U, 3 * U])
        assert cs.pred(1 * U) == 0
        assert cs.pred(3 * U) == 1 * U
        assert cs.pred(2 * U) == 1 * U
        assert cs.pred(4 * U) == 3 * U

    def test_deduplicates(self):
        cs = CompressedSet([5, 5, 2, 2, 9])
        assert len(cs) == 3


INT64 = np.iinfo(np.int64)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(INT64.min, INT64.max), max_size=40),
        # heavy duplication, the extremes among them
        st.lists(st.sampled_from([INT64.min, -1, 0, 1, 7, INT64.max]), max_size=200),
    )
)
@example([])
@example([INT64.max])
@example([INT64.max, INT64.min] * 50)
def test_sorted_distinct_is_np_unique(values):
    values = np.asarray(values, dtype=np.int64)
    got = sorted_distinct(values)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.unique(values))


def _fill_pools(cfg, D, bulk, order_seed=0):
    n = D.shape[0]
    src = StreamSource.from_square(D, order_seed=order_seed)
    if bulk:
        pools = SketchPools(cfg, n)
        u, v, d = src.arrays()
        pools.bulk_ingest(u, v, d)
    else:
        pools = ReferencePools(cfg, n)
        for u, v, d in zip(*(a.tolist() for a in src.arrays())):
            pools.ingest_entry(u, v, d)
    return pools


def _contents(weights, others):
    """Kept entries as ({weight: sorted members}, kept count)."""
    groups = {}
    for w, x in zip(weights, others):
        groups.setdefault(w, []).append(x)
    return {w: sorted(m) for w, m in groups.items()}, len(weights)


def _reference_contents(sk):
    """A `VertexSketch` as ({weight: sorted members}, kept count)."""
    return {w: sorted(m) for w, m in sk.collections.items()}, sk.counter


def _runs(pools, instance, s, s_prime, vertices):
    """Each of `vertices`' kept run in pool (instance, s, s') as a pair of
    weight and neighbour lists, empty where it keeps none, from one
    `entries` call."""
    at, weights, others = pools.entries(instance, s, s_prime, vertices)
    cuts = np.searchsorted(at, np.arange(1, len(vertices)))
    return [
        (a.tolist(), b.tolist())
        for a, b in zip(np.split(weights, cuts), np.split(others, cuts))
    ]


def _reported_runs(pools, instance, vertices, rungs):
    """Each of `vertices`' run in the s = s' pool of its rung, or None
    where its rung is -1, from one `entries` call per rung."""
    runs = {
        r: _runs(pools, instance, pools.sizes[r], pools.sizes[r], vertices)
        for r in set(rungs) - {-1}
    }
    return [None if r < 0 else runs[r][i] for i, r in enumerate(rungs)]


def _close_entries(pools, v):
    """v's close queue as sorted (weight, neighbour) pairs and its overflow
    flag, from either store."""
    if isinstance(pools, ReferencePools):
        return pools.close[v].entries(), pools.close[v].overflowed
    k = pools.close_lengths[v]
    pairs = zip(pools.close_weights[v, :k].tolist(), pools.close_others[v, :k].tolist())
    return list(pairs), bool(pools.close_overflow[v])


def _canonical(pools):
    close = [_close_entries(pools, v) for v in range(pools.n)]
    sketches = {}
    if isinstance(pools, ReferencePools):
        for key, sk in pools.sketches.items():
            if sk.collections:
                sketches[key] = _reference_contents(sk)
    else:
        vertices = np.arange(pools.n)
        for instance, s, sp in pools.sketches:
            runs = _runs(pools, instance, s, sp, vertices)
            for v, (weights, others) in enumerate(runs):
                if weights:
                    sketches[(instance, v, s, sp)] = _contents(weights, others)
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

    # few weights: ties at the cutoffs; many: weights only a close queue holds
    @pytest.mark.parametrize("levels", [6, 2000])
    def test_queries_match_reference_where_pools_cut_apart(self, levels):
        n = 40
        alphabet = [fp.from_int(k) for k in range(1, levels + 1)]
        spec = GeneratorSpec(kind="uniform_random", n=n, seed=5, value_alphabet=alphabet)
        D = generate(spec)[0].dense()
        cfg = SketchConfig.polylog_shape(n, seed=3, instance_count=2)
        ref = _fill_pools(cfg, D, bulk=False, order_seed=1)
        csr = _fill_pools(cfg, D, bulk=True, order_seed=2)
        # some (instance, s') group holds pools that keep different prefixes
        kept = {}
        for (instance, s, sp), pool in csr.sketches.items():
            kept.setdefault((instance, sp), []).append(pool.kept)
        assert any(
            any(not np.array_equal(k, ks[0]) for k in ks) for ks in kept.values()
        )
        assert _canonical(csr) == _canonical(ref)
        assert csr.build_compressed_set().weights.tolist() == ref.compressed_weights()
        probes = [0] + np.unique(D).tolist()
        # the array queries answer all n vertices at once, in any order;
        # with the pools equal above, equal rungs give equal reported sketches
        shuffled = np.random.default_rng(levels).permutation(n)
        for instance in range(cfg.instance_count):
            for w in probes:
                rungs = csr.rungs(shuffled, w, instance)
                degrees = csr.degrees(shuffled, w, instance)
                for v, rung, degree in zip(shuffled.tolist(), rungs, degrees):
                    reported = ref.report_sketch(v, w, instance)
                    assert rung == (-1 if reported is None else ref.sizes.index(reported[1]))
                    assert degree == ref.estimate_degree(v, w, instance)
                none = np.zeros(0, dtype=np.int64)
                assert csr.rungs(none, w, instance).shape == (0,)
                assert csr.degrees(none, w, instance).shape == (0,)
        unfinished = SketchPools(cfg, n)
        for query in (unfinished.rungs, unfinished.degrees):
            with pytest.raises(PhaseError):
                query(shuffled, probes[1], 0)


class TestPoolsQueries:
    def make(self, n=32, seed=3):
        src, _ = generate(GeneratorSpec(kind="uniform_random", n=n, seed=seed))
        D = src.dense()
        cfg = SketchConfig.scaled(n, seed=seed)
        pools = _fill_pools(cfg, D, bulk=True)
        return pools, D

    def test_queries_require_finalize(self):
        pools = SketchPools(SketchConfig(), 4)
        s = pools.sizes[0]
        for query in (
            lambda: pools.close_within([0], U),
            lambda: pools.entries(0, s, s, [0]),
            lambda: pools.rungs([0], U, 0),
            lambda: pools.degrees([0], U, 0),
            pools.build_compressed_set,
        ):
            with pytest.raises(PhaseError):
                query()

    def test_ingest_after_finalize_fails(self):
        pools = SketchPools(SketchConfig(), 2)
        pools.finalize()
        with pytest.raises(PhaseError):
            pools.bulk_ingest([0], [1], [U])

    def test_second_bulk_ingest_fails(self):
        # one call builds the whole state, so a second one would replace it
        # with the second half of the stream
        src, _ = generate(GeneratorSpec(kind="uniform_random", n=12, seed=3))
        u, v, d = src.arrays()
        half = len(d) // 2
        pools = SketchPools(SketchConfig.scaled(12, seed=3), 12)
        pools.bulk_ingest(u[:half], v[:half], d[:half])
        with pytest.raises(PhaseError):
            pools.bulk_ingest(u[half:], v[half:], d[half:])

    def test_estimate_degree_exact_from_close_queue(self):
        pools, D = self.make()
        w = int(np.median(D[D > 0]))
        vertices = np.arange(pools.n)
        exact, _ = pools.close_within(vertices, w)
        truth = np.count_nonzero(D <= w, axis=1)  # includes self
        degrees = pools.degrees(vertices, w, 0)
        assert np.array_equal(degrees[exact], truth[exact])

    def test_estimate_degree_close_to_truth_with_saturating_samples(self):
        # sample_factor >= n makes every sketch probability 1, so the
        # sketch-path estimate is exact wherever nothing was pruned
        pools, D = self.make(n=24, seed=8)
        w = int(np.max(D))
        degrees = pools.degrees(np.arange(pools.n), w, 0)
        for est, row in zip(degrees.tolist(), D):
            truth = int(np.count_nonzero(row <= w))
            assert abs(est - truth) <= max(2, truth // 3)

    def test_compressed_set_covers_close_queue_weights(self):
        pools, D = self.make()
        cs = pools.build_compressed_set()
        for v in range(pools.n):
            for dist, _ in _close_entries(pools, v)[0]:
                assert dist in cs.weights

    def test_report_sketch_returns_none_without_sketches(self):
        # n = 2: one ladder size, sampled with probability 1/2, so an owner
        # holds a sketch exactly when its one neighbour is in the sample
        D = np.array([[0, U], [U, 0]], dtype=np.int64)
        outcomes = set()
        for seed in range(8):
            cfg = SketchConfig(sample_factor=1, instance_count=1, seed=seed)
            pools = _fill_pools(cfg, D, bulk=True)
            (size,) = pools.sizes
            rungs = pools.rungs([0, 1], U, 0)
            for owner in (0, 1):
                sampled = bool(pools.masks[(0, size)][1 - owner])
                assert (rungs[owner] < 0) == (not sampled)
                outcomes.add(sampled)
        assert outcomes == {True, False}

    def test_one_vertex_wrappers_read_the_array_queries(self):
        # `report_sketch` and `estimate_degree` remain for the benchmark's
        # patch table; pin them to the array queries at every (instance,
        # v, w). Queues of 2 leave most degrees to the sketches. Samples of
        # probability 1/8 or 1/16 with budget 1 leave some vertices without
        # a reported sketch; budgets of 4 over 24 weight levels keep runs
        # whose first and governing weights differ.
        n = 16
        alphabet = [fp.from_int(k) for k in range(1, 25)]
        spec = GeneratorSpec(kind="uniform_random", n=n, seed=6, value_alphabet=alphabet)
        D = generate(spec)[0].dense()
        vertices = np.arange(n)
        reported, estimated, spread = set(), 0, 0
        for sample_factor in (1, 4):
            cfg = SketchConfig(
                close_capacity=2, sample_factor=sample_factor, min_size=8 // sample_factor,
                instance_count=3, seed=6,
            )
            pools = _fill_pools(cfg, D, bulk=True)
            for instance in range(cfg.instance_count):
                for w in [0] + np.unique(D).tolist():
                    rungs = pools.rungs(vertices, w, instance).tolist()
                    degrees = pools.degrees(vertices, w, instance).tolist()
                    exact, _ = pools.close_within(vertices, w)
                    estimated += int((~exact & (np.array(rungs) >= 0)).sum())
                    runs = _reported_runs(pools, instance, vertices, rungs)
                    for v in range(n):
                        assert pools.estimate_degree(v, w, instance) == degrees[v]
                        got = pools.report_sketch(v, w, instance)
                        reported.add(got is not None)
                        if runs[v] is None:
                            assert got is None
                            continue
                        weights, others = runs[v]
                        spread += weights[0] != weights[-1]
                        gw, size, got_weights, got_others = got
                        assert (gw, size) == (weights[-1], pools.sizes[rungs[v]])
                        assert got_weights.tolist() == weights
                        assert got_others.tolist() == others
        assert reported == {True, False}
        assert estimated > 0 and spread > 0

    def test_consume_instance_once_only(self):
        pools, _ = self.make(n=16, seed=2)
        pools.consume_instance(0, [1, 2, 3])
        pools.consume_instance(0, [4, 5])
        pools.consume_instance(1, [1])
        with pytest.raises(ContractViolation):
            pools.consume_instance(0, [3])


def _answers(pools, triples):
    """Every (instance, v, w) query's reported sketch (governing weight,
    size and kept entries), degree estimate, and close queue count and
    exactness. `ReferencePools` answers one query at a time in the given
    order; `SketchPools` answers each (instance, w) for all its vertices at
    once, in the order they are first asked."""
    if isinstance(pools, ReferencePools):
        answers = {}
        for instance, v, w in triples:
            reported = pools.report_sketch(v, w, instance)
            if reported is not None:
                gw, size, sk = reported
                reported = gw, size, _reference_contents(sk)
            answers[(instance, v, w)] = (
                reported,
                pools.estimate_degree(v, w, instance),
                pools.close_count(v, w),
                pools.close_exact(v, w),
            )
        return answers
    asked = {}
    for instance, v, w in triples:
        asked.setdefault((instance, w), []).append(v)
    answers = {}
    for (instance, w), vertices in asked.items():
        vertices = np.array(vertices)
        rungs = pools.rungs(vertices, w, instance).tolist()
        degrees = pools.degrees(vertices, w, instance).tolist()
        exact, within = pools.close_within(vertices, w)
        runs = _reported_runs(pools, instance, vertices, rungs)
        for i, v in enumerate(vertices.tolist()):
            reported = None
            if runs[i] is not None:
                weights, others = runs[i]
                reported = weights[-1], pools.sizes[rungs[i]], _contents(weights, others)
            answers[(instance, v, w)] = (
                reported,
                degrees[i],
                int(within[i].sum()),
                bool(exact[i]),
            )
    return answers


class TestSharedStorage:
    def test_blocks_are_shared_by_mask_content_not_by_sample_size(self):
        # sample_factor 4: R_{s'} is a strict sample for s' > 4, so the
        # instances' masks differ there and agree (all true) below
        n = 64
        D = generate(GeneratorSpec(kind="uniform_random", n=n, seed=7))[0].dense()
        cfg = SketchConfig.scaled(n, seed=2, sample_factor=4, instance_count=4)
        csr = _fill_pools(cfg, D, bulk=True, order_seed=1)
        ref = _fill_pools(cfg, D, bulk=False, order_seed=2)
        outcomes = set()
        for (i, s, sp), pool in csr.sketches.items():
            for j in range(i + 1, cfg.instance_count):
                other = csr.sketches.get((j, s, sp))
                if other is None:
                    continue
                same_mask = np.array_equal(csr.masks[(i, sp)], csr.masks[(j, sp)])
                assert (pool.block is other.block) == same_mask
                outcomes.add(same_mask)
        assert outcomes == {True, False}
        assert _canonical(csr) == _canonical(ref)
        probes = [0] + np.unique(D).tolist()[::7]
        triples = [
            (instance, v, w)
            for instance in range(cfg.instance_count)
            for v in range(n)
            for w in probes
        ]
        assert _answers(csr, triples) == _answers(ref, triples)

    def test_scaled_config_stores_one_block_per_sample_size(self):
        # scaled(n) samples with probability 1, so every instance holds the
        # same state; each instance still has every pool, and `words`
        # still counts every instance's kept entries
        n = 48
        D = generate(GeneratorSpec(kind="planted_ultrametric", n=n, seed=3))[0].dense()
        cfg = SketchConfig.scaled(n, seed=1)
        pools = _fill_pools(cfg, D, bulk=True)
        blocks = {id(pool.block) for pool in pools.sketches.values()}
        assert len(blocks) == len(pools.sizes)
        assert len(pools.sketches) == cfg.instance_count * len(pools.pairs)
        kept = sum(int(pool.kept.sum()) for pool in pools.sketches.values())
        masks = cfg.instance_count * len(pools.sizes) * ((n + 63) // 64)
        close = int(pools.close_lengths.sum())
        assert pools.words == 2 * kept + 2 * close + masks


class TestWordCount:
    """`peak_words` is the running maximum of the words the pools hold."""

    def test_peak_is_the_held_words_when_no_run_is_cut(self):
        # scaled(n) budgets exceed every run, so the words only grow
        n = 32
        D = generate(GeneratorSpec(kind="uniform_random", n=n, seed=4))[0].dense()
        pools = _fill_pools(SketchConfig.scaled(n, seed=4), D, bulk=True)
        assert pools.words > 0
        assert pools.peak_words == pools.words

    def test_budget_overflow_peaks_above_the_held_words(self):
        # while a pool cuts an owner's run at its budget b it holds b + 1
        # entries, one more than it may keep, so the peak exceeds the end
        n = 32
        D = generate(GeneratorSpec(kind="uniform_random", n=n, seed=4))[0].dense()
        cfg = SketchConfig(sample_factor=1, instance_count=1, close_capacity=1)
        pools = _fill_pools(cfg, D, bulk=True)
        s = pools.sizes[-1]
        sampled = pools.masks[(0, s)]
        runs = [int(np.count_nonzero(np.delete(sampled, v))) for v in range(n)]
        kept = pools.sketches[(0, s, s)].kept
        assert max(runs) > cfg.budget(s, s) >= int(kept.max())
        assert pools.peak_words > pools.words


class TestQueryMemo:
    """Queries are pure: no answer depends on which were asked before."""

    @pytest.mark.parametrize("sample_factor", [None, 4], ids=["scaled", "sampled"])
    def test_answers_do_not_depend_on_the_order_asked(self, sample_factor):
        n = 40
        spec = GeneratorSpec(kind="planted_ultrametric", n=n, seed=2, noise_k=20)
        D = generate(spec)[0].dense()
        overrides = {} if sample_factor is None else {"sample_factor": sample_factor}
        cfg = SketchConfig.scaled(n, seed=5, **overrides)
        pools = _fill_pools(cfg, D, bulk=True)
        weights = pools.build_compressed_set().weights.tolist()
        triples = [
            (instance, v, w)
            for w in weights
            for v in range(n)
            for instance in range(cfg.instance_count)
        ]
        order = np.random.default_rng(0).permutation(len(triples))
        shuffled = [triples[i] for i in order]
        first = _answers(pools, triples)
        again = _answers(pools, shuffled)
        fresh = _answers(_fill_pools(cfg, D, bulk=True), shuffled)
        assert first == again == fresh
