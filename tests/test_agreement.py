import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamfit import agreement, fixedpoint as fp
from streamfit.agreement import (
    AgreementParams,
    ClusterInvariantError,
    Clustering,
    ExactView,
    SketchView,
    _assert_density,
    s_structural_clustering,
)
from streamfit.sketches import ContractViolation, SketchConfig, SketchPools
from streamfit.streams import GeneratorSpec, StreamSource, generate

U = fp.SCALE


def two_clique_matrix(n1, n2, flip=()):
    n = n1 + n2
    D = np.full((n, n), 3 * U, dtype=np.int64)
    D[:n1, :n1] = 1 * U
    D[n1:, n1:] = 1 * U
    np.fill_diagonal(D, 0)
    for u, v in flip:
        D[u, v] = D[v, u] = (1 if D[u, v] == 3 * U else 3) * U
    return D


def hub_matrix(k):
    """A hub adjacent to two k-cliques that are far from each other."""
    n = 2 * k + 1
    D = np.full((n, n), 5 * U, dtype=np.int64)
    D[:k, :k] = 1 * U
    D[k : 2 * k, k : 2 * k] = 1 * U
    D[2 * k, :] = 1 * U
    D[:, 2 * k] = 1 * U
    np.fill_diagonal(D, 0)
    return D


def neighbourhoods(D, w):
    """Closed neighbourhood of every vertex at threshold w, as sets."""
    n = len(D)
    return [{y for y in range(n) if y == x or D[x][y] <= w} for x in range(n)]


def agrees(nbhd, s_set, u, v, gamma):
    """u and v agree under gamma inside S when
    |N(u)| + |N(v)| - 2|N(u) cap N(v) cap S| < gamma * max(|N(u)|, |N(v)|)."""
    if u == v:
        return True
    du, dv = len(nbhd[u]), len(nbhd[v])
    stat = du + dv - 2 * len(nbhd[u] & nbhd[v] & s_set)
    return stat < gamma * max(du, dv)


def heavy(nbhd, s_set, u, eps, beta=None):
    """u is heavy when fewer than eps * |N(u)| of its neighbours are outside
    S or disagree with it under beta, by default 5 eps (1 + eps)."""
    if beta is None:
        beta = 5 * eps * (1 + eps)
    limit = eps * len(nbhd[u])
    misses = 0
    for x in nbhd[u]:
        if x not in s_set or not agrees(nbhd, s_set, u, x, beta):
            misses += 1
            if misses >= limit:
                return False
    return True


class TestParams:
    def test_beta_formula(self):
        p = AgreementParams(epsilon=Fraction(1, 100))
        assert p.beta == Fraction(5, 100) * Fraction(101, 100)
        assert p.three_beta == 3 * p.beta

    def test_epsilon_range_enforced(self):
        with pytest.raises(ValueError):
            AgreementParams(epsilon=Fraction(1, 90))
        with pytest.raises(ValueError):
            AgreementParams(epsilon=0)
        AgreementParams(epsilon=Fraction(1, 95))


class TestExactQueries:
    """Exact agreement and heaviness, as the set predicates that the matrix
    path of the clustering is checked against."""

    def setup_method(self):
        self.nbhd = neighbourhoods(two_clique_matrix(8, 8), 1 * U)
        self.S = set(range(16))
        self.params = AgreementParams()

    def test_same_clique_agrees(self):
        assert agrees(self.nbhd, self.S, 0, 1, self.params.beta)

    def test_cross_clique_disagrees(self):
        assert not agrees(self.nbhd, self.S, 0, 8, self.params.beta)
        assert not agrees(self.nbhd, self.S, 0, 8, 3 * self.params.beta)

    def test_clique_members_are_heavy(self):
        for v in (0, 5, 8):
            assert heavy(self.nbhd, self.S, v, self.params.epsilon)

    def test_hub_is_not_heavy(self):
        D = hub_matrix(8)
        nbhd = neighbourhoods(D, 1 * U)
        S = set(range(D.shape[0]))
        eps = self.params.epsilon
        assert not heavy(nbhd, S, 16, eps)
        # clique members fail too: one disagreeing neighbor out of nine
        # already exceeds the epsilon fraction at this degree
        assert not heavy(nbhd, S, 0, eps)

    def test_subset_discounts_outside_common_neighbors(self):
        # restricting S to one clique: vertices of the other clique share
        # all their neighbors, but those fall outside S and count double,
        # so they agree inside the full set and not inside the restriction
        gamma = self.params.beta
        assert agrees(self.nbhd, self.S, 8, 9, gamma)
        assert not agrees(self.nbhd, set(range(8)), 8, 9, 3 * gamma)


@pytest.mark.parametrize("seed", range(4))
def test_exact_degrees_count_each_row(seed):
    rng = np.random.default_rng(seed)
    n = 30
    src, _ = generate(GeneratorSpec(kind="uniform_random", n=n, seed=seed))
    D = src.dense()
    view = ExactView(D)
    for w in [0, *np.unique(D[D > 0]).tolist()]:
        expected = (D <= w).sum(axis=1)
        for _ in range(3):
            size = int(rng.integers(1, n + 1))
            vertices = rng.choice(n, size=size, replace=False)
            assert np.array_equal(view.degrees(vertices, w), expected[vertices])
    # at w = 0 the diagonal is every vertex's only neighbour
    assert np.array_equal(view.degrees(np.arange(n), 0), np.ones(n))
    assert np.array_equal(view.degrees(np.arange(n), int(D.max())), np.full(n, n))


class TestExactClustering:
    def test_two_cliques_recovered(self):
        D = two_clique_matrix(8, 8)
        result = s_structural_clustering(
            range(16), 1 * U, AgreementParams(), ExactView(D)
        )
        got = sorted(tuple(sorted(c)) for c in result.to_lists())
        assert got == [tuple(range(8)), tuple(range(8, 16))]

    def test_subset_yields_single_cluster(self):
        D = two_clique_matrix(8, 8)
        result = s_structural_clustering(
            range(8), 1 * U, AgreementParams(), ExactView(D)
        )
        assert result.to_lists() == [list(range(8))]

    def test_large_threshold_merges_everything(self):
        D = two_clique_matrix(6, 6)
        result = s_structural_clustering(
            range(12), 3 * U, AgreementParams(), ExactView(D)
        )
        assert result.to_lists() == [list(range(12))]

    def test_clusters_partition_ground_set(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            n = int(rng.integers(6, 20))
            src, _ = generate(
                GeneratorSpec(kind="uniform_random", n=n, seed=trial)
            )
            D = src.dense()
            w = int(np.median(D[D > 0]))
            result = s_structural_clustering(
                range(n), w, AgreementParams(), ExactView(D)
            )
            merged = sorted(x for c in result.to_lists() for x in c)
            assert merged == list(range(n))

    def test_empty_s_rejected(self):
        with pytest.raises(ValueError):
            s_structural_clustering(
                [], 1 * U, AgreementParams(), ExactView(two_clique_matrix(3, 3))
            )

    def test_unsorted_or_repeated_ids_are_deduplicated(self):
        D = two_clique_matrix(8, 8)
        want = s_structural_clustering(
            range(16), 1 * U, AgreementParams(), ExactView(D)
        )
        for s in ([9, 3, 3, *range(16)], np.arange(16)[::-1].copy(), [[0, 1], [2, 3]]):
            got = s_structural_clustering(s, 1 * U, AgreementParams(), ExactView(D))
            assert np.array_equal(got.ground_set, np.unique(np.asarray(s)))
            if len(got.ground_set) == 16:
                assert got.to_lists() == want.to_lists()

    def test_partition_invariant_raised_on_bad_clustering(self):
        bad = Clustering(
            ground_set=np.arange(4), clusters=[np.array([0, 1]), np.array([1, 2, 3])]
        )
        with pytest.raises(ClusterInvariantError):
            bad.assert_partition()

    def test_exact_clustering_checks_density_of_its_clusters(self, monkeypatch):
        checked = []
        monkeypatch.setattr(
            agreement, "_assert_density",
            lambda sub, label: checked.append((sub.copy(), label.copy())),
        )
        D = two_clique_matrix(8, 8)
        result = s_structural_clustering(
            range(16), 1 * U, AgreementParams(), ExactView(D)
        )
        assert len(result.clusters) == 2
        ((sub, label),) = checked
        assert np.array_equal(sub, D <= 1 * U)
        # S is every vertex, so a vertex's position in S is its id
        groups = {}
        for vertex, cluster in enumerate(label.tolist()):
            groups.setdefault(cluster, []).append(vertex)
        assert sorted(groups.values()) == sorted(result.to_lists())

    def test_density_invariant_raised_on_sparse_cluster(self):
        """The path 0-1-2-3 as one cluster: each end is adjacent to itself
        and one neighbour, 2 of 4 members, below two thirds."""
        sub = np.eye(5, dtype=bool)
        for i in range(3):
            sub[i, i + 1] = sub[i + 1, i] = True
        with pytest.raises(ClusterInvariantError, match="cluster of size 4 is not"):
            _assert_density(sub, np.array([0, 0, 0, 0, 4]))
        # the same vertices as two adjacent pairs and a singleton are dense
        _assert_density(sub, np.array([0, 0, 2, 2, 4]))
        # both clusters fail; the message names the one of smallest label
        with pytest.raises(ClusterInvariantError, match="cluster of size 2 is not"):
            _assert_density(sub, np.array([3, 1, 3, 1, 3]))


@st.composite
def planted_groups(draw):
    """Up to four planted groups on up to 20 vertices, close inside a group
    and far across, with a few entries redrawn at random."""
    n = draw(st.integers(2, 20))
    levels = sorted(draw(st.sets(st.integers(1, 9), min_size=2, max_size=4)))
    group = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    D = [
        [0 if i == j else levels[0] if group[i] == group[j] else levels[-1]
         for j in range(n)]
        for i in range(n)
    ]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for (i, j), level in draw(
        st.lists(st.tuples(pair, st.sampled_from(levels)), max_size=n)
    ):
        if i != j:
            D[i][j] = D[j][i] = level
    removed = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    return D, removed


@st.composite
def one_large_group(draw):
    """One group of 100 to 124 vertices plus up to three vertices that are
    close to 80-90% of it, with one to three vertices left out of S. A heavy
    vertex may keep a neighbour outside S only when its degree exceeds
    1/epsilon, so only groups this large let the S restriction change a
    clustering, and the partial neighbours put pairs near the 3-beta bound."""
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(100, 124))
    n = m + draw(st.integers(1, 3))
    levels = sorted(draw(st.sets(st.integers(1, 9), min_size=2, max_size=4)))
    ids = list(range(n))
    rnd.shuffle(ids)
    core, extra = ids[:m], ids[m:]
    D = [[0 if i == j else levels[-1] for j in range(n)] for i in range(n)]
    for a in range(m):
        for b in range(a + 1, m):
            level = rnd.choice(levels) if rnd.random() < 0.005 else levels[0]
            D[core[a]][core[b]] = D[core[b]][core[a]] = level
    for x in extra:
        near = rnd.sample(core, rnd.randint(m - m // 5, m - m // 10))
        level = rnd.choice(levels[:-1])
        for y in near:
            D[x][y] = D[y][x] = level
    removed = set(rnd.sample(ids, draw(st.integers(1, 3))))
    return D, removed


@st.composite
def subset_clustering_inputs(draw):
    """A matrix with 2 to 4 distinct levels (so ties occur), a nonempty
    proper subset S of the vertices, a threshold w at a stored level and
    an epsilon."""
    D, removed = draw(st.one_of(planted_groups(), one_large_group()))
    n = len(D)
    s_list = [x for x in range(n) if x not in removed]
    w = draw(st.sampled_from(sorted({D[i][j] for i in range(n) for j in range(i)})))
    eps = draw(st.sampled_from([Fraction(1, 100), Fraction(1, 95), Fraction(1, 300)]))
    return D, s_list, w, eps


def reference_subset_clustering(D, s_list, w, eps):
    """S-structural clustering from Python integer sets, with the `agrees`
    and `heavy` predicates. Heavy vertices, in ascending id order, claim
    every unclaimed vertex of S that agrees under 3 beta; the rest become
    singletons.
    """
    nbhd = neighbourhoods(D, w)
    s_set = set(s_list)
    beta = 5 * eps * (1 + eps)
    unclaimed = sorted(s_set)
    clusters = []
    for u in sorted(s_set):
        if u in unclaimed and heavy(nbhd, s_set, u, eps):
            members = [
                v for v in unclaimed if agrees(nbhd, s_set, u, v, 3 * beta)
            ]
            unclaimed = [v for v in unclaimed if v not in members]
            clusters.append(members)
    return clusters + [[v] for v in unclaimed]


@given(subset_clustering_inputs())
@settings(max_examples=300, deadline=None)
def test_exact_clustering_matches_set_reference(case):
    D, s_list, w, eps = case
    view = ExactView(np.array(D, dtype=np.int64))
    got = s_structural_clustering(s_list, w, AgreementParams(epsilon=eps), view)
    assert got.to_lists() == reference_subset_clustering(D, s_list, w, eps)


EPSILONS = [Fraction(1, 95), Fraction(1, 100), Fraction(1, 300)]


def assert_claims_match_set_predicates(D, s_list, w, params, positions=None):
    """`ExactView.claims` against the set predicates `agrees` and `heavy`:
    the heavy mask, and every 3-beta row off its diagonal (the clustering
    claims a seed itself whatever its row says), at the given positions of
    S or at all of them."""
    D = np.asarray(D, dtype=np.int64)
    nbhd = neighbourhoods(D.tolist(), w)
    s_set = set(s_list)
    claims = ExactView(D).claims(np.array(s_list), w, params)
    if positions is None:
        positions = range(len(s_list))
    for i in positions:
        u = s_list[i]
        assert claims.heavy[i] == heavy(nbhd, s_set, u, params.epsilon, params.beta)
        got = claims.row(i).tolist()
        want = [agrees(nbhd, s_set, u, v, params.three_beta) for v in s_list]
        got[i] = want[i]
        assert got == want, u


def count_ties(D, s_list, w, params):
    """The pairs of S whose statistic lies exactly on the beta bound, and
    those exactly on the 3-beta bound."""
    nbhd = neighbourhoods(np.asarray(D).tolist(), w)
    s_set = set(s_list)
    ties = [0, 0]
    for a, u in enumerate(s_list):
        for v in s_list[a + 1:]:
            du, dv = len(nbhd[u]), len(nbhd[v])
            stat = du + dv - 2 * len(nbhd[u] & nbhd[v] & s_set)
            for t, gamma in enumerate((params.beta, params.three_beta)):
                ties[t] += stat == gamma * max(du, dv)
    return ties


@given(subset_clustering_inputs())
@settings(max_examples=100, deadline=None)
def test_exact_claims_match_set_predicates(case):
    D, s_list, w, eps = case
    assert_claims_match_set_predicates(D, s_list, w, AgreementParams(epsilon=eps))


@pytest.mark.parametrize("eps", EPSILONS, ids=str)
@pytest.mark.parametrize(
    "beta", [Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)], ids=str
)
def test_exact_claims_keep_the_bound_strict_on_ties(eps, beta):
    """Gammas of small denominator put pairs exactly on the bound,
    stat * den == num * max(d_u, d_v), where a pair must not agree. The
    epsilons of the fits never tie below n = 1805, so the gammas are set by
    hand here; 3 beta = 6/5 also puts the cut-offs above n."""
    params = SimpleNamespace(epsilon=eps, beta=beta, three_beta=3 * beta)
    rng = np.random.default_rng(int(beta.denominator))
    ties = np.zeros(2, dtype=np.int64)
    for seed in range(6):
        n = 24
        D = rng.integers(1, 7, size=(n, n))
        D = np.triu(D, 1)
        D += D.T
        s_list = sorted(rng.choice(n, size=n - seed, replace=False).tolist())
        for w in range(1, 7):
            assert_claims_match_set_predicates(D, s_list, w, params)
            ties += count_ties(D, s_list, w, params)
    assert ties.min() > 0


@pytest.mark.parametrize(
    "params, w",
    [
        (AgreementParams(epsilon=Fraction(1, 95)), 92),
        (AgreementParams(epsilon=Fraction(1, 300)), 95),
        (SimpleNamespace(epsilon=Fraction(1, 100), beta=Fraction(1, 3),
                         three_beta=Fraction(1)), 50),
        (SimpleNamespace(epsilon=Fraction(1, 100), beta=Fraction(1, 3),
                         three_beta=Fraction(1)), 99),
    ],
    ids=["eps95-w92", "eps300-w95", "gamma1-w50", "gamma1-w99"],
)
def test_exact_claims_match_on_a_dense_600_vertex_matrix(params, w):
    """Degrees near n = 600, so cut-offs up to n - 1 (gamma = 1). At w = 92
    a pair's statistic is near 3 beta of its degree for epsilon = 1/95, so
    the rows mix both answers. Every pair is checked against the integer
    bound; 24 positions also against the set predicates."""
    n = 600
    rng = np.random.default_rng(w)
    D = rng.integers(1, 101, size=(n, n))
    D = np.triu(D, 1)
    D += D.T
    s_list = sorted(rng.choice(n, size=n - 3, replace=False).tolist())
    s_arr = np.array(s_list)
    claims = ExactView(D).claims(s_arr, w, params)
    adj = (D <= w)[s_arr]
    d = adj.sum(axis=1)
    sub = adj[:, s_arr].astype(np.int64)
    stat = d[:, None] + d[None, :] - 2 * (sub @ sub.T)
    gamma = params.three_beta
    want = stat * gamma.denominator < gamma.numerator * np.maximum.outer(d, d)
    rows = np.array([claims.row(i) for i in range(len(s_list))])
    np.fill_diagonal(rows, True)
    np.fill_diagonal(want, True)
    assert np.array_equal(rows, want)
    # at w = 99 every pair agrees under gamma = 1; elsewhere rows are mixed
    assert want.any() and (w == 99 or not want.all())
    assert_claims_match_set_predicates(
        D, s_list, w, params, positions=rng.choice(len(s_list), 24, replace=False)
    )


def test_exact_claims_allocate_at_most_12_bytes_per_pair():
    """With S = V on a planted n = 512 instance the float32 product and
    statistic, the adjacency and the beta mask set the peak, about 9 bytes
    per pair of S; int64 S-by-S statistics and bounds made it 26."""
    n = 512
    spec = GeneratorSpec(kind="planted_ultrametric", n=n, seed=1, noise_k=n // 2,
                         value_alphabet=[fp.from_int(k) for k in range(1, 9)])
    D = generate(spec)[0].dense()
    view = ExactView(D)
    s_arr = np.arange(n)
    w = int(np.median(D[D > 0]))
    params = AgreementParams()
    view.claims(s_arr, w, params)  # warm-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        claims = view.claims(s_arr, w, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert claims.heavy.any()
    assert peak - before <= 12 * n * n


def make_sketch_view(D, seed=0, instance=0, **overrides):
    n = D.shape[0]
    cfg = SketchConfig.scaled(n, seed=seed, **overrides)
    pools = SketchPools(cfg, n)
    u, v, d = StreamSource.from_square(D, order_seed=seed).arrays(0)
    pools.bulk_ingest(u, v, d)
    return SketchView(pools, instance)


@given(subset_clustering_inputs())
@settings(max_examples=100, deadline=None)
def test_sketch_clustering_matches_set_reference_when_queues_hold_all(case):
    # queues as deep as n hold every neighbourhood, so no pair is estimated
    D, s_list, w, eps = case
    D = np.array(D, dtype=np.int64)
    view = make_sketch_view(D, close_capacity=max(len(D), 8))
    params = AgreementParams(epsilon=eps)
    got = s_structural_clustering(s_list, w, params, view)
    assert got.to_lists() == reference_subset_clustering(D.tolist(), s_list, w, eps)


class PairwiseSketchReference:
    """Sketch agreement and heaviness decided one pair at a time from the
    pools' queries, in Python floats: the definition the array kernel of
    `SketchView.claims` is checked against. The queries are read once for
    all of S, and each pool's runs once when first needed; every decision
    is made per pair."""

    def __init__(self, view, s_list, w, params):
        pools = self.pools = view.pools
        self.instance, self.w = view.instance, w
        self.s_list = list(s_list)
        self.s_set = set(s_list)
        self.params = params
        s_arr = self.s_arr = np.array(self.s_list, dtype=np.int64)
        exact, within = pools.close_within(s_arr, w)
        # each closed neighbourhood from its close queue, or None when the
        # queue does not hold all of it
        self.nbhds = {
            v: {v, *pools.close_others[v, : int(count)].tolist()} if ex else None
            for v, ex, count in zip(self.s_list, exact, within.sum(axis=1))
        }
        self.degree = dict(zip(self.s_list, pools.degrees(s_arr, w, view.instance).tolist()))
        rungs = pools.rungs(s_arr, w, view.instance).tolist()
        self.size = {v: pools.sizes[r] if r >= 0 else None for v, r in zip(self.s_list, rungs)}
        self.pool_runs = {}

    def run(self, x, s, s_prime):
        """x's kept (weights, others) in pool (instance, s, s'), or None
        when the pool keeps nothing for x."""
        runs = self.pool_runs.get((s, s_prime))
        if runs is None:
            at, weights, others = self.pools.entries(
                self.instance, s, s_prime, self.s_arr
            )
            cuts = np.searchsorted(at, np.arange(len(self.s_list) + 1))
            runs = self.pool_runs[(s, s_prime)] = {
                v: (weights[a:b], others[a:b])
                for v, a, b in zip(self.s_list, cuts[:-1], cuts[1:])
                if b > a
            }
        return runs.get(x)

    def below(self, s):
        sizes = self.pools.sizes
        return sizes[min(sizes.index(s) + 1, len(sizes) - 1)]

    def members(self, run):
        weights, others = run
        return set(others[: weights.searchsorted(self.w, side="right")].tolist())

    def agrees(self, u, v, gamma):
        if u == v:
            return True
        pools = self.pools
        nu, nv = self.nbhds[u], self.nbhds[v]
        if nu is not None and nv is not None:
            stat = len(nu) + len(nv) - 2 * len(nu & nv & self.s_set)
            return stat < gamma * max(len(nu), len(nv))
        half = pools.config.close_capacity // 2
        if any(a is not None and b is None and len(a) <= half
               for a, b in ((nu, nv), (nv, nu))):
            return False
        zeta = pools.config.zeta
        deg_u, deg_v = self.degree[u], self.degree[v]
        d_small, d_big = min(deg_u, deg_v), max(deg_u, deg_v)
        if 1 - ((1 + 5 * zeta) * d_small) / ((1 - zeta) * d_big) > 0.8 * gamma:
            return False
        rung = {}
        for x, nb in ((u, nu), (v, nv)):
            if nb is None:
                if self.size[x] is None:
                    return False
                rung[x] = self.size[x]
        lo, hi = min(rung.values()), max(rung.values())
        s_prime = self.below(lo) if lo == hi else lo

        def sample(x, nb):
            if nb is not None:
                mask = pools.membership.mask(self.instance, s_prime)
                return {y for y in nb if y != x and mask[y]}
            run = self.run(x, rung[x], s_prime)
            return None if run is None else self.members(run)

        su, sv = sample(u, nu), sample(v, nv)
        if su is None or sv is None:
            return False
        x_count = len(su & sv & self.s_set) + (v in su) + (u in sv)
        prob = pools.config.sample_probability(s_prime)
        return (deg_u + deg_v - 2 * x_count / prob) / d_big <= 0.9 * gamma

    def heavy(self, u):
        pools, params = self.pools, self.params
        beta = float(params.beta)
        nu = self.nbhds[u]
        if nu is not None:
            inside = sum(1 for x in nu if x in self.s_set and self.agrees(u, x, beta))
            eps = params.epsilon
            return (len(nu) - inside) * eps.denominator < eps.numerator * len(nu)
        s = self.size[u]
        if s is None:
            return False
        # the sample one rung down when u keeps one there, else the reported
        s_prime = self.below(s)
        run = self.run(u, s, s_prime)
        if run is None:
            s_prime, run = s, self.run(u, s, s)
        y = sum(
            1 for x in self.members(run) if x in self.s_set and self.agrees(u, x, beta)
        )
        prob = pools.config.sample_probability(s_prime)
        return 1 - (1 + y / prob) / self.degree[u] <= 1.1 * float(params.epsilon)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("sample_factor", [4, 12], ids=["sf4", "sf12"])
def test_sketch_claims_match_pairwise_reference_when_sampling(seed, sample_factor):
    # small sample factors put sample probabilities below 1, so pairs are
    # decided by sampled common neighbours and vertices by sampled heaviness
    n = 48
    spec = GeneratorSpec(kind="planted_ultrametric", n=n, seed=seed, noise_k=n // 2,
                         value_alphabet=[fp.from_int(k) for k in range(1, 6)])
    D = generate(spec)[0].dense()
    params = AgreementParams(epsilon=Fraction(1, 95))
    rng = np.random.default_rng(seed)
    for instance, w in enumerate(sorted(set(D[D > 0].tolist()))[1:]):
        view = make_sketch_view(D, seed=seed, instance=instance,
                                sample_factor=sample_factor)
        s_list = sorted(rng.choice(n, size=n - 4 * instance, replace=False).tolist())
        claims = view.claims(np.array(s_list), w, params)
        ref = PairwiseSketchReference(view, s_list, w, params)
        three_beta = float(params.three_beta)
        assert claims.heavy.tolist() == [ref.heavy(u) for u in s_list]
        for i, u in enumerate(s_list):
            got = claims.row(i).tolist()
            assert got == [ref.agrees(u, v, three_beta) for v in s_list]


def test_exact_side_half_a_queue_deep_never_matches_an_estimated_side():
    # twelve mutual neighbours overflow their queues of 8 at w, so they are
    # estimated; vertex 12 is exact with closed degree 4, half a queue, and
    # vertex 13 exact with degree 5. A gamma so wide that every degree ratio
    # and sampled estimate passes leaves the queue depth as the only rule
    # that can separate 12 from 13.
    cap, big = 8, 12
    D = np.full((big + 2, big + 2), 3 * U, dtype=np.int64)
    D[:big, :big] = 1 * U
    D[big, :3] = D[:3, big] = 1 * U
    D[big + 1, :4] = D[:4, big + 1] = 1 * U
    np.fill_diagonal(D, 0)
    view = make_sketch_view(D, close_capacity=cap)
    wide = SimpleNamespace(
        epsilon=Fraction(1, 95), beta=Fraction(1), three_beta=Fraction(4)
    )
    s_list = list(range(big + 2))
    claims = view.claims(np.array(s_list), 1 * U, wide)
    degrees = view.degrees(np.array([big, big + 1]), 1 * U)
    assert degrees.tolist() == [cap // 2, cap // 2 + 1]
    assert not claims.row(big)[:big].any()
    assert claims.row(big + 1)[:big].all()
    ref = PairwiseSketchReference(view, s_list, 1 * U, wide)
    for u in s_list:
        assert claims.row(u).tolist() == [ref.agrees(u, v, 4.0) for v in s_list]


class TestSketchQueries:
    def test_matches_exact_on_two_cliques(self):
        D = two_clique_matrix(10, 10)
        view = make_sketch_view(D, seed=1)
        params = AgreementParams()
        claims = view.claims(np.arange(20), 1 * U, params)
        assert claims.row(0)[1]
        assert not claims.row(0)[10]
        assert claims.heavy[0]

    def test_clustering_recovers_cliques(self):
        D = two_clique_matrix(12, 12)
        view = make_sketch_view(D, seed=2)
        result = s_structural_clustering(
            range(24), 1 * U, AgreementParams(), view
        )
        got = sorted(tuple(sorted(c)) for c in result.to_lists())
        assert got == [tuple(range(12)), tuple(range(12, 24))]

    def test_decisions_match_exact_mode(self):
        rng = np.random.default_rng(5)
        agree_total = agree_match = 0
        for trial in range(6):
            n = 24
            src, _ = generate(
                GeneratorSpec(kind="uniform_random", n=n, seed=100 + trial)
            )
            D = src.dense()
            w = int(np.median(D[D > 0]))
            nbhd = neighbourhoods(D, w)
            sketch = make_sketch_view(D, seed=trial)
            params = AgreementParams()
            claims = sketch.claims(np.arange(n), w, params)
            S = set(range(n))
            for _ in range(40):
                u, v = rng.integers(0, n, size=2)
                if u == v:
                    continue
                a = agrees(nbhd, S, int(u), int(v), params.three_beta)
                b = claims.row(int(u))[int(v)]
                agree_total += 1
                agree_match += a == b
        assert agree_match / agree_total >= 0.9

    def test_instance_consumed_once(self):
        D = two_clique_matrix(6, 6)
        view = make_sketch_view(D, seed=3)
        s_structural_clustering(
            range(12), 1 * U, AgreementParams(), view
        )
        with pytest.raises(ContractViolation):
            s_structural_clustering(
                range(12), 1 * U, AgreementParams(), view
            )
