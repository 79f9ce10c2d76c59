import itertools
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


def exact_view(D, view=ExactView):
    """The view of a symmetric matrix with a zero diagonal and positive
    distances off it, built from its ranks as an exact fit builds it."""
    return view(*StreamSource.from_square(D).ranks())


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
    view = exact_view(D)
    for w in [0, *np.unique(D[D > 0]).tolist()]:
        expected = (D <= w).sum(axis=1)
        for _ in range(3):
            size = int(rng.integers(1, n + 1))
            vertices = rng.choice(n, size=size, replace=False)
            assert np.array_equal(view.degrees(vertices, w), expected[vertices])
    # at w = 0 the diagonal is every vertex's only neighbour
    assert np.array_equal(view.degrees(np.arange(n), 0), np.ones(n))
    assert np.array_equal(view.degrees(np.arange(n), int(D.max())), np.full(n, n))


@st.composite
def peel_probe_inputs(draw):
    """A matrix with one to five distinct levels (so rows tie), a vertex
    order `big` of a nonempty subset, cut-offs 1 <= k_rim <= k_dense <= n
    (k_dense often 1 or n), every stored weight and 0 in a random order,
    and for each probe which positions the next one keeps."""
    n = draw(st.integers(1, 24))
    levels = draw(st.sets(st.integers(1, 9), min_size=1, max_size=5))
    D = np.zeros((n, n), dtype=np.int64)
    iu = np.triu_indices(n, 1)
    D[iu] = draw(st.lists(st.sampled_from(sorted(levels)), min_size=len(iu[0]),
                          max_size=len(iu[0])))
    D += D.T
    D *= U
    order = draw(st.permutations(range(n)))
    big = np.array(order[: draw(st.integers(1, n))], dtype=np.int64)
    k_dense = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    k_rim = draw(st.integers(1, k_dense))
    ws = draw(st.permutations([0, *np.unique(D[iu]).tolist()]))
    keeps = [
        draw(st.lists(st.booleans(), min_size=len(big), max_size=len(big)))
        for _ in ws
    ]
    return D, big, k_dense, k_rim, ws, keeps


@given(peel_probe_inputs())
@settings(max_examples=200, deadline=None)
def test_exact_peel_probe_counts_each_row_against_both_cutoffs(case):
    D, big, k_dense, k_rim, ws, keeps = case
    probe = exact_view(D).peel_probe(big, k_dense, k_rim)
    pos = np.arange(len(big))
    for w, keep in zip(ws, keeps):
        dense, rim = probe(pos, w)
        degs = (D[big[pos]] <= w).sum(axis=1)
        assert np.array_equal(dense, degs >= k_dense)
        assert np.array_equal(rim, degs < k_rim)
        pos = pos[np.array(keep)[: len(pos)]]


def value_matrix_claims(D, s_arr, w, params):
    """The heavy flags and 3-beta rows of every position of S straight from
    the int64 value matrix, with int64 statistics and the bound compared
    as integers."""
    near = (D <= w)[s_arr]
    d = near.sum(axis=1)
    sub = near[:, s_arr].astype(np.int64)
    stat = d[:, None] + d - 2 * (sub @ sub.T)
    bigger = np.maximum.outer(d, d)

    def agree(gamma):
        return stat * gamma.denominator < gamma.numerator * bigger

    agree_b = agree(params.beta)
    np.fill_diagonal(agree_b, True)
    inside = (agree_b & (sub > 0)).sum(axis=1)
    eps = params.epsilon
    heavy = (d - inside) * eps.denominator < eps.numerator * d
    return heavy, agree(params.three_beta)


def assert_rank_view_matches_value_matrix(D, s_arr, ws, k_dense, k_rim, params):
    """A ranks-backed `ExactView` of D gives, at every threshold of `ws` in
    turn, the degrees, the peel probe's answers over every position and
    the claims of S that the int64 value matrix gives."""
    view = exact_view(D)
    probe = view.peel_probe(s_arr, k_dense, k_rim)
    everything = np.arange(len(s_arr))
    for w in ws:
        degs = (D[s_arr] <= w).sum(axis=1)
        assert np.array_equal(view.degrees(s_arr, w), degs)
        dense, rim = probe(everything, w)
        assert np.array_equal(dense, degs >= k_dense)
        assert np.array_equal(rim, degs < k_rim)
        heavy, rows = view.claims(s_arr, w, params).rows(everything)
        want_heavy, want_rows = value_matrix_claims(D, s_arr, w, params)
        assert np.array_equal(heavy, want_heavy)
        assert np.array_equal(rows, want_rows)


@st.composite
def rank_view_inputs(draw):
    """A value matrix on 1 to 20 points with one to six distinct levels,
    a nonempty subset S, cut-offs 1 <= k_rim <= k_dense <= |S|, an epsilon,
    and thresholds in a random order: 0, every stored value, one between
    each two neighbouring values, and two above the largest."""
    n = draw(st.integers(1, 20))
    levels = draw(st.sets(st.integers(1, 10**12), min_size=1, max_size=6))
    iu = np.triu_indices(n, 1)
    D = np.zeros((n, n), dtype=np.int64)
    D[iu] = draw(st.lists(st.sampled_from(sorted(levels)), min_size=len(iu[0]),
                          max_size=len(iu[0])))
    D += D.T
    stored = [0, *np.unique(D[iu]).tolist()]
    between = [draw(st.integers(a, b)) for a, b in zip(stored, stored[1:])]
    ws = draw(st.permutations([*stored, *between, stored[-1] + 1, 2**62]))
    s_list = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    k_dense = draw(st.integers(1, len(s_list)))
    k_rim = draw(st.integers(1, k_dense))
    eps = draw(st.sampled_from(EPSILONS))
    return D, np.array(s_list), ws, k_dense, k_rim, AgreementParams(epsilon=eps)


@given(rank_view_inputs())
@settings(max_examples=200, deadline=None)
def test_rank_view_answers_as_the_value_matrix(case):
    assert_rank_view_matches_value_matrix(*case)


def test_rank_view_answers_as_the_value_matrix_past_2_16_values():
    """370 points with every distance distinct: 68,265 values take uint32
    ranks, which answer as the values do at stored thresholds and between
    them."""
    n = 370
    rng = np.random.default_rng(5)
    iu = np.triu_indices(n, 1)
    D = np.zeros((n, n), dtype=np.int64)
    D[iu] = 2 * rng.permutation(len(iu[0])) + 2
    D += D.T
    assert StreamSource.from_square(D).ranks()[0].dtype == np.uint32
    s_arr = np.sort(rng.choice(n, size=300, replace=False))
    stored = np.unique(D[iu])
    # the values are even, so one above a stored value lies between two
    picks = stored[[300, len(stored) // 2, -1]].tolist()
    ws = [0, 1, *picks, *(w + 1 for w in picks)]
    assert_rank_view_matches_value_matrix(D, s_arr, ws, 200, 150, AgreementParams())


@pytest.mark.parametrize("close_capacity", [2, 8])
def test_sketch_peel_probe_thresholds_the_pool_degrees(close_capacity):
    # shallow queues leave most degrees to the sampled estimates
    n = 40
    spec = GeneratorSpec(kind="planted_ultrametric", n=n, seed=3, noise_k=n // 2,
                         value_alphabet=[fp.from_int(k) for k in range(1, 6)])
    D = generate(spec)[0].dense()
    view = make_sketch_view(D, seed=3, close_capacity=close_capacity,
                            sample_factor=4)
    rng = np.random.default_rng(close_capacity)
    big = rng.permutation(n)[:30]
    ws = sorted({0, *D[D > 0].tolist()}, reverse=True)
    estimated = 0
    # every cut-off from 1 to n, so some degree meets each one
    for k_dense in range(1, n + 1):
        for k_rim in {k_dense, (k_dense + 1) // 2}:
            probe = view.peel_probe(big, k_dense, k_rim)
            pos = np.arange(len(big))
            for w in ws:
                dense, rim = probe(pos, w)
                degs, exact, *_ = view.pools.estimates(big[pos], w, view.instance)
                estimated += int(np.count_nonzero(~exact))
                assert np.array_equal(dense, degs >= k_dense)
                assert np.array_equal(rim, degs < k_rim)
                pos = pos[1:]
    assert estimated > 0


class TestExactClustering:
    def test_two_cliques_recovered(self):
        D = two_clique_matrix(8, 8)
        result = s_structural_clustering(
            range(16), 1 * U, AgreementParams(), exact_view(D)
        )
        got = sorted(tuple(sorted(c)) for c in result.to_lists())
        assert got == [tuple(range(8)), tuple(range(8, 16))]

    def test_subset_yields_single_cluster(self):
        D = two_clique_matrix(8, 8)
        result = s_structural_clustering(
            range(8), 1 * U, AgreementParams(), exact_view(D)
        )
        assert result.to_lists() == [list(range(8))]

    def test_large_threshold_merges_everything(self):
        D = two_clique_matrix(6, 6)
        result = s_structural_clustering(
            range(12), 3 * U, AgreementParams(), exact_view(D)
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
                range(n), w, AgreementParams(), exact_view(D)
            )
            merged = sorted(x for c in result.to_lists() for x in c)
            assert merged == list(range(n))

    def test_empty_s_rejected(self):
        with pytest.raises(ValueError):
            s_structural_clustering(
                [], 1 * U, AgreementParams(), exact_view(two_clique_matrix(3, 3))
            )

    def test_unsorted_or_repeated_ids_are_deduplicated(self):
        D = two_clique_matrix(8, 8)
        want = s_structural_clustering(
            range(16), 1 * U, AgreementParams(), exact_view(D)
        )
        for s in ([9, 3, 3, *range(16)], np.arange(16)[::-1].copy(), [[0, 1], [2, 3]]):
            got = s_structural_clustering(s, 1 * U, AgreementParams(), exact_view(D))
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
        """Two 8-cliques and a vertex far from both, which seeds a cluster
        of its own: each cluster of two or more vertices is checked once,
        against the float32 adjacency of S, and the singleton is not."""
        checked = []
        monkeypatch.setattr(
            agreement, "_assert_density",
            lambda adj, members: checked.append((adj, members.tolist())),
        )
        D = np.full((17, 17), 3 * U, dtype=np.int64)
        D[:16, :16] = two_clique_matrix(8, 8)
        np.fill_diagonal(D, 0)
        result = s_structural_clustering(
            range(17), 1 * U, AgreementParams(), exact_view(D)
        )
        assert result.to_lists() == [list(range(8)), list(range(8, 16)), [16]]
        # S is every vertex, so a vertex's position in S is its id
        assert [members for _, members in checked] == result.to_lists()[:2]
        for adj, _ in checked:
            assert adj.dtype == np.float32
            assert np.array_equal(adj, D <= 1 * U)

    def test_density_invariant_raised_on_sparse_cluster(self):
        """The path 0-1-2-3 as one cluster: each end is adjacent to itself
        and one neighbour, 2 of 4 members, below two thirds."""
        adj = np.eye(5, dtype=np.float32)
        for i in range(3):
            adj[i, i + 1] = adj[i + 1, i] = 1
        with pytest.raises(ClusterInvariantError, match="cluster of size 4 is not"):
            _assert_density(adj, np.array([0, 1, 2, 3]))
        # the same vertices as two adjacent pairs are dense
        _assert_density(adj, np.array([0, 1]))
        _assert_density(adj, np.array([2, 3]))
        # seed 0 claims {0, 3} and seed 1 claims {1, 2, 4}; both fail, and
        # the clustering names the one of smallest label, claimed first
        claimed = np.zeros((5, 5), dtype=bool)
        claimed[0, [0, 3]] = claimed[1, [1, 2, 4]] = True
        heavy = np.array([True, True, False, False, False])
        view = SimpleNamespace(claims=lambda s_arr, w, params: agreement.Claims(
            lambda pos: (heavy[pos], claimed[pos]), adj))
        with pytest.raises(ClusterInvariantError, match="cluster of size 2 is not"):
            s_structural_clustering(range(5), 1 * U, AgreementParams(), view)


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
    view = exact_view(D)
    got = s_structural_clustering(s_list, w, AgreementParams(epsilon=eps), view)
    assert got.to_lists() == reference_subset_clustering(D, s_list, w, eps)


EPSILONS = [Fraction(1, 95), Fraction(1, 100), Fraction(1, 300)]


def read_rows(claims, positions, sizes=None):
    """The heavy flags and 3-beta rows of `claims` at `positions`, from one
    `rows` call, or from consecutive blocks whose sizes cycle through
    `sizes`."""
    positions = np.asarray(positions, dtype=np.int64)
    if sizes is None:
        return claims.rows(positions)
    flags, rows, at = [], [], 0
    for size in itertools.cycle(sizes):
        if at >= len(positions):
            break
        heavy, row = claims.rows(positions[at : at + size])
        flags.append(heavy)
        rows.append(row)
        at += size
    return np.concatenate(flags), np.concatenate(rows)


# uneven blocks, so that rows are read across block seams of every width
UNEVEN = (1, 3, 2, 7, 5)


def assert_claims_match_set_predicates(D, s_list, w, params, positions=None):
    """`ExactView.claims` against the set predicates `agrees` and `heavy`:
    the heavy flags, and every 3-beta row off its diagonal (the clustering
    claims a seed itself whatever its row says), at the given ascending
    positions of S or at all of them. The rows are read once in one call
    and once in uneven blocks."""
    D = np.asarray(D, dtype=np.int64)
    nbhd = neighbourhoods(D.tolist(), w)
    s_set = set(s_list)
    claims = exact_view(D).claims(np.array(s_list), w, params)
    if positions is None:
        positions = range(len(s_list))
    positions = list(positions)
    flags, rows = read_rows(claims, positions)
    in_blocks = read_rows(claims, positions, UNEVEN)
    assert np.array_equal(flags, in_blocks[0])
    assert np.array_equal(rows, in_blocks[1])
    for i, flag, row in zip(positions, flags.tolist(), rows):
        u = s_list[i]
        assert flag == heavy(nbhd, s_set, u, params.epsilon, params.beta)
        got = row.tolist()
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


def test_sketch_exact_claims_keep_the_bound_strict_on_ties():
    """Two exact vertices a and b of closed degrees 21 and 20 share 7
    neighbours, so stat = 21 + 20 - 14 = 27 = (9/7) 21 lies on the 3-beta
    bound and the pair must not agree; in floats (9/7) 21 reads
    27.000000000000004."""
    a, b, n = 0, 1, 34
    D = np.full((n, n), 3 * U, dtype=np.int64)
    shared, only_a, only_b = range(2, 9), range(9, 22), range(22, 34)
    for x in (*shared, *only_a):
        D[a, x] = D[x, a] = U
    for x in (*shared, *only_b):
        D[b, x] = D[x, b] = U
    np.fill_diagonal(D, 0)
    view = make_sketch_view(D, close_capacity=n)
    params = SimpleNamespace(
        epsilon=Fraction(1, 100), beta=Fraction(3, 7), three_beta=Fraction(9, 7)
    )
    s_list = list(range(n))
    claims = view.claims(np.array(s_list), U, params)
    assert view.pools.degrees([a, b], U, view.instance).tolist() == [21, 20]
    _, rows = read_rows(claims, s_list)
    assert not rows[a, b] and not rows[b, a]
    ref = PairwiseSketchReference(view, s_list, U, params)
    for u in (a, b):
        want = [ref.agrees(u, v, params.three_beta) for v in s_list]
        assert rows[u].tolist() == want


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
    claims = exact_view(D).claims(s_arr, w, params)
    k = len(s_list)
    adj = (D <= w)[s_arr]
    d = adj.sum(axis=1)
    sub = adj[:, s_arr].astype(np.int64)
    stat = d[:, None] + d[None, :] - 2 * (sub @ sub.T)
    gamma = params.three_beta
    want = stat * gamma.denominator < gamma.numerator * np.maximum.outer(d, d)
    np.fill_diagonal(want, True)
    flags, rows = read_rows(claims, np.arange(k))
    # blocks of every seam width, and blocks as wide as the seed loop's last
    for sizes in (UNEVEN, (agreement._MAX_ROWS,)):
        in_blocks = read_rows(claims, np.arange(k), sizes)
        assert np.array_equal(flags, in_blocks[0])
        assert np.array_equal(rows, in_blocks[1])
    np.fill_diagonal(rows, True)
    assert np.array_equal(rows, want)
    # at w = 99 every pair agrees under gamma = 1; elsewhere rows are mixed
    assert want.any() and (w == 99 or not want.all())
    assert_claims_match_set_predicates(
        D, s_list, w, params, positions=sorted(rng.choice(k, 24, replace=False))
    )


def loop_blocks(k):
    """The seed loop's blocks over k positions when none is clustered: they
    start at `_FIRST_ROWS` positions and double up to `_MAX_ROWS`."""
    blocks, start, size = [], 0, agreement._FIRST_ROWS
    while start < k:
        blocks.append(np.arange(start, min(k, start + size)))
        start += size
        size = min(2 * size, agreement._MAX_ROWS)
    return blocks


def test_exact_claims_allocate_at_most_7_bytes_per_pair():
    """With S = V on a planted n = 512 instance, `claims` and `rows` over
    every position in the seed loop's blocks peak at about 6 bytes per pair
    of S: the bool mask of S, its S-by-S columns and the float32 adjacency
    built from them. Each block of rows adds at most 10 bytes per entry of
    a 64-by-|S| block to the adjacency. Gathering the rows of S as int64
    distances, not as uint16 ranks, made it 9; int64 S-by-S statistics and
    bounds made it 26."""
    n = 512
    spec = GeneratorSpec(kind="planted_ultrametric", n=n, seed=1, noise_k=n // 2,
                         value_alphabet=[fp.from_int(k) for k in range(1, 9)])
    src = generate(spec)[0]
    view = ExactView(*src.ranks())
    s_arr = np.arange(n)
    w = int(np.median(src.d))
    params = AgreementParams()

    def claims_and_rows():
        claims = view.claims(s_arr, w, params)
        return [claims.rows(block)[0].any() for block in loop_blocks(n)]

    claims_and_rows()  # warm-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        heavy = claims_and_rows()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert any(heavy)
    assert peak - before <= 7 * n * n


def eager_clustering(claims, k):
    """The seed loop over rows read all at once, before any is claimed, as
    a list of (seed, members) in position order, and the singletons."""
    heavy, rows = claims.rows(np.arange(k))
    unclustered = np.ones(k, dtype=bool)
    seeded = []
    for i in np.flatnonzero(heavy).tolist():
        if not unclustered[i]:
            continue
        claim = rows[i] & unclustered
        claim[i] = True
        members = np.flatnonzero(claim)
        unclustered[members] = False
        seeded.append((i, members.tolist()))
    return seeded, np.flatnonzero(unclustered).tolist()


@pytest.mark.parametrize("seed", range(6))
def test_lazy_seed_loop_matches_eager_rows(seed):
    """The clustering reads rows in blocks as it goes; it must equal the
    same loop over every row read at once. Groups of 30 to 60 vertices
    under shuffled ids, with a few edges across, put both seams of the lazy
    loop to work: a heavy seed that claims later positions of its own
    block, and a vertex with an edge across, not heavy and passed over,
    that a later seed of its group claims."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(30, 61, size=int(rng.integers(2, 5)))
    n = int(sizes.sum())
    group = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    D = np.where(group[:, None] == group, 1 * U, 3 * U)
    for u, v in rng.integers(0, n, size=(n // 8, 2)):
        D[u, v] = D[v, u] = 4 * U - D[u, v]
    # vertex 0, first in every S, has an edge across
    across = np.flatnonzero(group != group[0])[0]
    D[0, across] = D[across, 0] = 1 * U
    np.fill_diagonal(D, 0)
    view = exact_view(D)
    blocks = []

    class BlockLog(ExactView):
        def claims(self, s_arr, w, params):
            claims = super().claims(s_arr, w, params)

            def rows(pos):
                blocks.append(pos.tolist())
                return claims.rows(pos)

            return claims._replace(rows=rows)

    in_block = passed_over = 0
    for eps in (Fraction(1, 95), Fraction(1, 100), Fraction(1, 300)):
        params = AgreementParams(epsilon=eps)
        for size in (n, n - 1, n - 10):
            s_arr = np.sort(rng.choice(np.arange(1, n), size=size - 1, replace=False))
            s_arr = np.concatenate([[0], s_arr])
            del blocks[:]
            got = s_structural_clustering(s_arr, 1 * U, params, exact_view(D, BlockLog))
            seeded, singles = eager_clustering(view.claims(s_arr, 1 * U, params), size)
            want = [s_arr[m].tolist() for _, m in seeded]
            assert got.to_lists() == want + [[int(s_arr[i])] for i in singles]
            # each block holds unclustered positions past the last block's
            visited = [i for block in blocks for i in block]
            assert visited == sorted(set(visited))
            block_of = {i: b for b, block in enumerate(blocks) for i in block}
            for i, members in seeded:
                in_block += any(j > i and block_of.get(j) == block_of[i] for j in members)
                passed_over += any(j < i for j in members)
    assert in_block > 0 and passed_over > 0


def make_sketch_view(D, seed=0, instance=0, **overrides):
    n = D.shape[0]
    cfg = SketchConfig.scaled(n, seed=seed, **overrides)
    pools = SketchPools(cfg, n)
    u, v, d = StreamSource.from_square(D, order_seed=seed).arrays()
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
    pools' queries, exactly for pairs of exact vertices and in Python
    floats otherwise: the definition the array kernel of
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
        ratio = 1 - ((1 + 5 * zeta) * d_small) / ((1 - zeta) * d_big)
        if ratio > float(agreement.RATIO_BAND) * float(gamma):
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
                mask = pools.masks[(self.instance, s_prime)]
                return {y for y in nb if y != x and mask[y]}
            run = self.run(x, rung[x], s_prime)
            return None if run is None else self.members(run)

        su, sv = sample(u, nu), sample(v, nv)
        if su is None or sv is None:
            return False
        x_count = len(su & sv & self.s_set) + (v in su) + (u in sv)
        prob = pools.config.sample_probability(s_prime)
        estimate = (deg_u + deg_v - 2 * x_count / prob) / d_big
        return estimate <= float(agreement.ESTIMATE_BAND) * float(gamma)

    def heavy(self, u):
        pools, params = self.pools, self.params
        beta = params.beta
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
        share = 1 - (1 + y / prob) / self.degree[u]
        return share <= float(agreement.HEAVY_BAND) * float(params.epsilon)


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
        three_beta = params.three_beta
        flags, rows = read_rows(claims, np.arange(len(s_list)))
        assert flags.tolist() == [ref.heavy(u) for u in s_list]
        for u, row in zip(s_list, rows):
            assert row.tolist() == [ref.agrees(u, v, three_beta) for v in s_list]


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
    degrees = view.pools.degrees([big, big + 1], 1 * U, view.instance)
    assert degrees.tolist() == [cap // 2, cap // 2 + 1]
    _, rows = read_rows(claims, s_list)
    assert not rows[big, :big].any()
    assert rows[big + 1, :big].all()
    ref = PairwiseSketchReference(view, s_list, 1 * U, wide)
    for u in s_list:
        want = [ref.agrees(u, v, wide.three_beta) for v in s_list]
        assert rows[u].tolist() == want


class TestSketchQueries:
    def test_matches_exact_on_two_cliques(self):
        D = two_clique_matrix(10, 10)
        view = make_sketch_view(D, seed=1)
        params = AgreementParams()
        claims = view.claims(np.arange(20), 1 * U, params)
        flags, rows = read_rows(claims, [0])
        assert rows[0, 1]
        assert not rows[0, 10]
        assert flags[0]

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
            _, rows = read_rows(sketch.claims(np.arange(n), w, params), np.arange(n))
            S = set(range(n))
            for _ in range(40):
                u, v = rng.integers(0, n, size=2)
                if u == v:
                    continue
                a = agrees(nbhd, S, int(u), int(v), params.three_beta)
                b = rows[u, v]
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
