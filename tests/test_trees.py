import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import streamfit as sf
from streamfit import fixedpoint as fp, trees
from streamfit.trees import (
    DomainError,
    TreeMetricRep,
    UltrametricTree,
    four_point_check,
    from_ultrametric_matrix,
    is_ultrametric,
    single_linkage_tree,
)

U = fp.SCALE


def two_pair_gadget():
    """Two tight pairs at 0.5 joined at 1.5."""
    lo, hi = fp.from_decimal("0.5"), fp.from_decimal("1.5")
    D = np.full((4, 4), hi, dtype=np.int64)
    np.fill_diagonal(D, 0)
    D[0, 1] = D[1, 0] = lo
    D[2, 3] = D[3, 2] = lo
    return D


def four_point_loop(matrix):
    """Test-only reference for `four_point_check`, on a checked matrix.

    For each quadruple the three pair sums are compared; the largest must be
    attained at least twice.
    """
    n = matrix.shape[0]
    if n <= 3:
        return True
    for i in range(n):
        for j in range(i + 1, n):
            a = matrix[i, j] + matrix
            b = np.add.outer(matrix[i], matrix[j])
            c = b.T
            top = np.maximum(np.maximum(a, b), c)
            twice = (
                (a == top).astype(np.int8) + (b == top) + (c == top)
            ) >= 2
            twice[i, :] = twice[j, :] = True
            twice[:, i] = twice[:, j] = True
            np.fill_diagonal(twice, True)
            if not twice.all():
                return False
    return True


COUNTEREXAMPLE = np.array(
    [[0, 5, 2, 2], [5, 0, 2, 2], [2, 2, 0, 5], [2, 2, 5, 0]], dtype=np.int64
)


class TestUltrametricTree:
    def test_from_nested_distances(self):
        tree = UltrametricTree.from_nested(4, (2 * U, [(1 * U, [0, 1]), (1 * U, [2, 3])]))
        assert tree.distance(0, 1) == 1 * U
        assert tree.distance(0, 2) == 2 * U
        assert tree.distance(2, 3) == 1 * U
        assert tree.distance(1, 1) == 0

    def test_induced_matrix_matches_pairwise_distance(self):
        tree = UltrametricTree.from_nested(
            5, (3 * U, [(1 * U, [0, 4]), (2 * U, [1, (1 * U, [2, 3])])])
        )
        M = tree.induced_matrix()
        for i in range(5):
            for j in range(5):
                assert M[i, j] == tree.distance(i, j)

    def test_canonical_numbering_is_preorder_by_smallest_leaf(self):
        nested = (3 * U, [(2 * U, [4, (1 * U, [3, 1])]), (1 * U, [2, 0])])
        tree = UltrametricTree.from_nested(5, nested)
        assert tree.root == 5
        assert tree.children[5] == [6, 7]
        assert tree.children[6] == [0, 2]
        assert tree.children[7] == [8, 4]
        assert tree.children[8] == [1, 3]
        assert tree.parent.tolist() == [6, 8, 6, 8, 7, -1, 5, 5, 7]
        assert tree.level.tolist() == [0, 0, 0, 0, 0, 3 * U, U, 2 * U, U]

    def test_equal_level_children_are_merged(self):
        nested = (2 * U, [(2 * U, [0, 1]), 2])
        tree = UltrametricTree.from_nested(3, nested)
        flat = UltrametricTree.from_nested(3, (2 * U, [0, 1, 2]))
        assert tree == flat

    def test_unary_nodes_collapse(self):
        tree = UltrametricTree.from_nested(2, (3 * U, [(1 * U, [0, 1])]))
        assert tree == UltrametricTree.from_nested(2, (1 * U, [0, 1]))

    def test_levels_must_decrease(self):
        with pytest.raises(DomainError):
            UltrametricTree.from_nested(3, (1 * U, [(2 * U, [0, 1]), 2]))

    def test_leaf_set_must_be_exact(self):
        with pytest.raises(DomainError):
            UltrametricTree.from_nested(3, (1 * U, [0, 1]))
        with pytest.raises(DomainError):
            UltrametricTree.from_nested(2, (1 * U, [0, 0]))
        with pytest.raises(DomainError):
            UltrametricTree.from_nested(2, (1 * U, [0, 1, 0]))
        # the same faults as flat arrays over all nodes
        malformed = [
            ([3, 3, -1, -1], [0, 0, 0, U]),  # two roots: leaf 2 is not below 3
            ([3, 0, 3, -1], [0, 0, 0, U]),  # leaf 0 holds leaf 1 as a child
            ([3, 3, 3, -1, 5, 4], [0, 0, 0, U, U, U]),  # 4 and 5 form a cycle
            ([3, 3], [0, 0]),  # fewer nodes than leaves
            ([3, 3, 5, -1], [0, 0, 0, U]),  # parent id out of range
        ]
        for parent, level in malformed:
            with pytest.raises(DomainError):
                UltrametricTree(3, parent, level)

    def test_single_leaf(self):
        tree = UltrametricTree.single_leaf()
        assert tree.n == 1
        assert tree.induced_matrix().shape == (1, 1)

    def test_shift_levels(self):
        tree = UltrametricTree.from_nested(3, (2 * U, [(1 * U, [0, 1]), 2]))
        shifted = tree.shift_levels(U // 2)
        assert shifted.distance(0, 1) == 3 * U // 2
        assert shifted.distance(0, 2) == 5 * U // 2

    def test_json_roundtrip(self):
        tree = UltrametricTree.from_nested(4, (2 * U, [(1 * U, [0, 3]), 1, 2]))
        again = UltrametricTree.from_json(tree.to_json())
        assert again == tree

    def test_json_is_deterministic(self):
        tree = UltrametricTree.from_nested(3, (2 * U, [(1 * U, [0, 1]), 2]))
        assert tree.to_json() == UltrametricTree.from_json(tree.to_json()).to_json()

    def test_newick_halves_branch_lengths(self):
        tree = UltrametricTree.from_nested(2, (1 * U, [0, 1]))
        text = tree.to_newick()
        assert text.endswith(";")
        assert "0.5" in text


class TestPredicates:
    def test_two_pair_gadget_is_ultrametric(self):
        assert is_ultrametric(two_pair_gadget())

    def test_violated_triangle(self):
        D = np.array(
            [[0, 2, 1], [2, 0, 1], [1, 1, 0]], dtype=np.int64
        ) * U
        # max side (0,1)=2 exceeds the other two: not an ultrametric
        assert not is_ultrametric(D)

    def test_is_ultrametric_matches_one_step_relaxation(self):
        """`is_ultrametric` compares D with its full minimax closure; the
        reference compares it with one relaxation step, min over k of
        max(D(u, k), D(k, v)), which equals D exactly when every triple
        holds. Random matrices over three values, at sizes where both
        answers occur."""

        def one_step(D):
            relaxed = np.full_like(D, np.iinfo(np.int64).max)
            for k in range(len(D)):
                np.minimum(relaxed, np.maximum.outer(D[:, k], D[k, :]), out=relaxed)
            return bool(np.array_equal(relaxed, D))

        rng = np.random.default_rng(29)
        seen = set()
        for _ in range(300):
            n = int(rng.integers(1, 7))
            iu, iv = np.triu_indices(n, 1)
            D = np.zeros((n, n), dtype=np.int64)
            D[iu, iv] = rng.integers(1, 4, size=len(iu)) * U
            D += D.T
            expected = one_step(D)
            assert is_ultrametric(D) == expected
            seen.add((n > 2, expected))
        assert seen == {(False, True), (True, True), (True, False)}

    def test_four_point_holds_on_tree_metric(self):
        # path metric on a star
        D = np.array(
            [
                [0, 2, 3, 3],
                [2, 0, 3, 3],
                [3, 3, 0, 2],
                [3, 3, 2, 0],
            ],
            dtype=np.int64,
        ) * U
        assert four_point_check(D)

    def test_four_point_counterexample(self):
        # pairing sums 10, 4, 4: the largest is attained once
        D = COUNTEREXAMPLE * U
        s12_34 = D[0, 1] + D[2, 3]
        s13_24 = D[0, 2] + D[1, 3]
        s14_23 = D[0, 3] + D[1, 2]
        assert (s12_34, s13_24, s14_23) == (10 * U, 4 * U, 4 * U)
        assert not four_point_check(D)

    def test_four_point_refuses_sums_past_int64(self):
        """Pair sums and the basepoint transform need max D <= INT64_MAX // 2;
        past it the sums would wrap and the counterexample would pass."""
        bound = np.iinfo(np.int64).max // 2
        assert not four_point_check(COUNTEREXAMPLE * (bound // 5))
        with pytest.raises(DomainError, match="INT64_MAX"):
            four_point_check(COUNTEREXAMPLE * 10**18)
        D = np.full((4, 4), bound, dtype=np.int64)
        np.fill_diagonal(D, 0)
        assert four_point_check(D)
        D[0, 1] = D[1, 0] = bound + 1
        with pytest.raises(DomainError, match="INT64_MAX"):
            four_point_check(D)

    def test_every_ultrametric_passes_four_point(self):
        assert four_point_check(two_pair_gadget())


class TestBuilders:
    def test_from_ultrametric_matrix_roundtrip(self):
        D = two_pair_gadget()
        tree = from_ultrametric_matrix(D)
        assert np.array_equal(tree.induced_matrix(), D)

    def test_off_diagonal_entries_must_be_positive(self):
        D = two_pair_gadget()
        D[0, 1] = D[1, 0] = 0
        with pytest.raises(DomainError, match="positive"):
            from_ultrametric_matrix(D)
        assert four_point_check(D)  # which allows zero distances
        D[0, 1] = D[1, 0] = -1
        for check in (from_ultrametric_matrix, four_point_check):
            with pytest.raises(DomainError, match="positive"):
                check(D)

    def test_single_linkage_needs_connectivity(self):
        with pytest.raises(DomainError):
            single_linkage_tree(3, [(1, 0, 1)])

    def test_single_linkage_from_forest(self):
        tree = single_linkage_tree(3, [(1 * U, 0, 1), (2 * U, 1, 2)])
        assert tree.distance(0, 1) == 1 * U
        assert tree.distance(0, 2) == 2 * U


@st.composite
def random_ultrametric(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    weights = draw(
        st.lists(st.integers(min_value=1, max_value=5), min_size=n - 1, max_size=n - 1)
    )
    edges = [(w * U, i, i + 1) for i, w in enumerate(weights)]
    return single_linkage_tree(n, edges).induced_matrix()


@given(random_ultrametric())
@settings(max_examples=60, deadline=None)
def test_minimax_relaxation_fixpoint(D):
    """An ultrametric equals its own one-step minimax relaxation."""
    assert is_ultrametric(D)
    assert four_point_check(D)


@st.composite
def relabelled_matrix(draw):
    """A symmetric nonnegative matrix over 1 to 5 values, zero allowed, and
    a random order of its points."""
    n = draw(st.integers(min_value=1, max_value=7))
    values = draw(st.lists(st.integers(0, 6), min_size=1, max_size=5, unique=True))
    iu, iv = np.triu_indices(n, 1)
    D = np.zeros((n, n), dtype=np.int64)
    D[iu, iv] = draw(st.lists(st.sampled_from(values), min_size=len(iu), max_size=len(iu)))
    D += D.T
    return D, draw(st.permutations(range(n)))


@given(relabelled_matrix())
@example((COUNTEREXAMPLE, [3, 0, 2, 1]))
@example((two_pair_gadget(), [0, 2, 1, 3]))
@settings(max_examples=300, deadline=None)
def test_four_point_check_matches_the_quadruple_loop(case):
    """The basepoint check agrees with the loop over every quadruple, and
    relabelling the points, which moves the basepoint, keeps its answer."""
    D, order = case
    expected = four_point_loop(D)
    assert four_point_check(D) == expected
    assert four_point_check(D[np.ix_(order, order)]) == expected


@st.composite
def random_nested_tree(draw):
    """Nested spec with wide nodes (up to 60 children), caterpillar chains
    and children that share their parent's level."""
    n = draw(st.integers(min_value=1, max_value=90))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    max_width = draw(st.integers(min_value=2, max_value=60))
    chain_bias = draw(st.sampled_from([0.0, 0.5, 0.95]))

    def build(ids, level):
        if len(ids) == 1:
            return int(ids[0])
        if rng.random() < chain_bias:
            cuts = [1]
        else:
            width = int(rng.integers(2, min(max_width, len(ids)) + 1))
            cuts = sorted(rng.choice(np.arange(1, len(ids)), width - 1, replace=False))
        groups = np.split(ids, cuts)
        return (
            level * U,
            [build(g, level - int(rng.integers(0, 3))) for g in groups],
        )

    ids = rng.permutation(n)
    return n, build(ids, 2 * n + 1)


def scrambled_pairs(n, rng):
    """Every ordered pair, u > v and u == v too, then 3n drawn again, all
    shuffled: past n = 16 more than one 16 n slice of `distances`."""
    u, v = np.indices((n, n)).reshape(2, -1)
    again = rng.integers(n, size=(2, 3 * n))
    order = rng.permutation(n * n + 3 * n)
    return np.concatenate([u, again[0]])[order], np.concatenate([v, again[1]])[order]


@given(random_nested_tree(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_induced_matrix_equals_pairwise_distance(spec, seed):
    """`distances` on scrambled pairs, and `induced_matrix` built on it,
    match the scalar parent walk `distance`."""
    n, nested = spec
    tree = UltrametricTree.from_nested(n, nested)
    M = tree.induced_matrix()
    expected = np.array(
        [[tree.distance(i, j) for j in range(n)] for i in range(n)], dtype=np.int64
    )
    assert np.array_equal(M, expected)
    u, v = scrambled_pairs(n, np.random.default_rng(seed))
    assert np.array_equal(tree.distances(u, v), expected[u, v])


@given(random_nested_tree(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_tree_metric_induced_matrix_equals_pairwise_distance(spec, seed):
    n, nested = spec
    rng = np.random.default_rng(seed)
    pivot = int(rng.integers(n))
    row = rng.integers(0, 8 * n, size=n) * (U // 4)
    row[pivot] = 0
    rep = TreeMetricRep(UltrametricTree.from_nested(n, nested), pivot, row)
    M = rep.induced_matrix()
    expected = np.array(
        [[rep.distance(i, j) for j in range(n)] for i in range(n)], dtype=np.int64
    )
    assert np.array_equal(M, expected)
    u, v = scrambled_pairs(n, rng)
    assert np.array_equal(rep.distances(u, v), expected[u, v])
    assert np.array_equal(M, M.T)
    assert (np.diag(M) == 0).all()


@given(random_nested_tree(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_constructor_normalises_scrambled_arrays(spec, seed):
    """Inserted unary nodes, inserted equal-level parent-child chains and
    scrambled internal ids give the arrays of the clean tree."""
    n, nested = spec
    clean = UltrametricTree.from_nested(n, nested)
    rng = np.random.default_rng(seed)
    parent = clean.parent.tolist()
    level = clean.level.tolist()
    for _ in range(int(rng.integers(0, n + 2))):
        x = int(rng.integers(len(parent)))
        kids = [c for c, p in enumerate(parent) if p == x]
        if kids and rng.random() < 0.5:
            # a new child of x at x's level takes over some of x's children
            moved = rng.random(len(kids)) < 0.5
            moved[rng.integers(len(kids))] = True
            for c in np.asarray(kids)[moved]:
                parent[c] = len(parent)
            parent.append(x)
            level.append(level[x])
        else:
            # a unary node at any level between x and its parent
            parent.append(parent[x])
            level.append(int(rng.integers(1, 4 * n + 4)) * U)
            parent[x] = len(parent) - 1
    parent = np.asarray(parent)
    # node i is renamed new_id[i]; leaves keep their ids
    new_id = np.concatenate([np.arange(n), n + rng.permutation(len(parent) - n)])
    scrambled_parent = np.empty_like(parent)
    scrambled_parent[new_id] = np.where(parent >= 0, new_id[parent], -1)
    scrambled_level = np.empty_like(parent)
    scrambled_level[new_id] = level
    assert UltrametricTree(n, scrambled_parent, scrambled_level) == clean


def all_pairs_single_linkage(matrix):
    """Reference for `from_ultrametric_matrix`: Kruskal over every pair,
    each a (w, u, v) tuple, through `single_linkage_tree`."""
    n = matrix.shape[0]
    iu, iv = np.triu_indices(n, k=1)
    edges = zip(matrix[iu, iv].tolist(), iu.tolist(), iv.tolist())
    return single_linkage_tree(n, edges)


@st.composite
def symmetric_matrix(draw):
    """Symmetric positive integer matrix, rarely ultrametric: values from
    three, from a wide range, or within three of the int64 maximum."""
    n = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    top = int(np.iinfo(np.int64).max)
    lo, hi = draw(st.sampled_from([(1, 3), (1, 10**12), (top - 3, top)]))
    upper = np.triu(rng.integers(lo, hi, size=(n, n), endpoint=True, dtype=np.int64), 1)
    return upper + upper.T


@given(symmetric_matrix())
@settings(max_examples=150, deadline=None)
def test_spanning_tree_builder_matches_all_pairs_reference(matrix):
    """Single linkage on Prim's spanning tree gives the arrays of single
    linkage on all pairs, ties, non-ultrametric input and huge values too."""
    tree = from_ultrametric_matrix(matrix)
    reference = all_pairs_single_linkage(matrix)
    assert np.array_equal(tree.parent, reference.parent)
    assert np.array_equal(tree.level, reference.level)


class TestDistances:
    def test_600_leaf_caterpillar_on_pairs_across_slices(self):
        """D(i, j) = max(i, j) is a 599-level caterpillar; pairs in any
        order, repeated and equal ones too, over several 16 n slices."""
        n = 600
        tree = single_linkage_tree(n, [(i * U, i - 1, i) for i in range(1, n)])
        rng = np.random.default_rng(6)
        u, v = rng.integers(n, size=(2, 40 * n))
        u[:n] = v[:n] = np.arange(n)
        got = tree.distances(u, v)
        assert np.array_equal(got, np.where(u == v, 0, np.maximum(u, v) * U))
        for k in range(0, len(u), 97):
            assert got[k] == tree.distance(int(u[k]), int(v[k]))

    def test_one_and_two_points(self):
        empty = np.zeros(0, dtype=np.int64)
        leaf = UltrametricTree.single_leaf()
        pair = UltrametricTree.from_nested(2, (3 * U, [0, 1]))
        rep = TreeMetricRep(pair, 1, [U, 0])
        for tree in (leaf, pair, rep):
            out = tree.distances(empty, empty)
            assert out.dtype == np.int64 and out.shape == (0,)
        assert leaf.distances([0, 0], [0, 0]).tolist() == [0, 0]
        assert pair.distances([1, 0, 1], [0, 0, 1]).tolist() == [3 * U, 0, 0]
        # T = U - C with C(0, 1) = 2 * U - U - 0
        assert rep.distances([0, 1, 0], [1, 0, 0]).tolist() == [2 * U, 2 * U, 0]

    def test_a_point_with_itself_reads_zero(self):
        """u == v reads 0 at every depth-first position, the first and the
        last too, for the tree metric whose centroid term is not 0 there."""
        tree = from_ultrametric_matrix(two_pair_gadget())
        rep = TreeMetricRep(tree, 0, np.array([0, 1, 2, 2]) * (U // 4))
        ids = np.arange(4)
        assert not tree.distances(ids, ids).any()
        assert not rep.distances(ids, ids).any()

    def test_unknown_ids_are_rejected(self):
        tree = from_ultrametric_matrix(two_pair_gadget())
        for u, v in (([0, -1], [1, 2]), ([0, 1], [4, 2])):
            with pytest.raises(DomainError):
                tree.distances(u, v)


def test_pair_query_peak_memory_stays_under_an_eighth_of_the_matrix():
    """All m pairs at n = 2048 hold the sparse table and one slice's
    temporaries beyond the m-word output: under n * n bytes, an eighth of
    the n x n int64 matrix, for both tree kinds."""
    n = 2048
    rng = np.random.default_rng(1)
    path = rng.permutation(n)
    weights = rng.integers(1, 10**6, size=n - 1) * U
    tree = single_linkage_tree(n, zip(weights.tolist(), path[:-1], path[1:]))
    row = rng.integers(1, 10**6, size=n) * U
    row[0] = 0
    u, v = np.triu_indices(n, k=1)
    for fitted in (tree, TreeMetricRep(tree, 0, row)):
        tracemalloc.start()
        try:
            out = fitted.distances(u, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < n * n
        del out


def count_tables(monkeypatch):
    """The sizes of the pair-query tables built from here on."""
    built, real = [], trees.gap_max_query

    def counting(order, gaps):
        built.append(len(order))
        return real(order, gaps)

    monkeypatch.setattr(trees, "gap_max_query", counting)
    return built


def test_a_tree_builds_its_pair_query_table_once(monkeypatch):
    built = count_tables(monkeypatch)
    tree = from_ultrametric_matrix(two_pair_gadget())
    u, v = np.indices((4, 4)).reshape(2, -1)
    first = tree.distances(u, v)
    assert np.array_equal(tree.distances(v, u), first)
    assert built == [4]


def test_tree_fit_consensus_and_cost_build_one_table_per_fit(monkeypatch):
    """At n = 192 the consensus reads its 18,336 pairs in two slices; each
    pivot's fit builds its table once, and `cost` of the winner reuses its
    table. The winner's distances read in slices equal one whole call."""
    n = 192
    src, _ = sf.generate(
        sf.GeneratorSpec(kind="planted_tree_metric", n=n, seed=3, noise_k=n)
    )
    built = count_tables(monkeypatch)
    res = sf.fit_l0_tree(src, seed=3)
    sf.cost(res.rep, src)
    assert built == [n] * len(res.pivots)
    step = 1 << 12
    sliced = [res.rep.distances(src.u[a : a + step], src.v[a : a + step])
              for a in range(0, len(src.u), step)]
    assert np.array_equal(np.concatenate(sliced), res.rep.distances(src.u, src.v))


def test_spanning_tree_builder_peak_memory_stays_under_twice_the_matrix():
    n = 1024
    upper = np.triu(np.random.default_rng(0).integers(1, 50, size=(n, n)), 1)
    matrix = upper + upper.T
    tracemalloc.start()
    try:
        from_ultrametric_matrix(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * matrix.nbytes


def recursive_newick(tree):
    """Newick by direct recursion, children in node-id order; branch length
    (parent level - child level) / 2 in exact decimals."""

    def length(diff):
        whole, frac = divmod(diff * 25, 10**11)
        if frac == 0:
            return str(whole)
        return f"{whole}." + str(frac).rjust(11, "0").rstrip("0")

    def render(idx):
        lvl = int(tree.level[idx])
        up = int(tree.level[tree.parent[idx]]) - lvl
        if idx < tree.n:
            return f"{idx}:{length(up)}"
        inner = ",".join(render(c) for c in tree.children[idx])
        return f"({inner}):{length(up)}"

    if tree.root < tree.n:
        return f"{tree.root};"
    inner = ",".join(render(c) for c in tree.children[tree.root])
    return f"({inner});"


def recursive_jsonable(tree, idx):
    """The JSON tree document below node idx, built by direct recursion."""
    if idx < tree.n:
        return {"node_id": idx, "leaf": True, "level": "0"}
    return {
        "node_id": idx,
        "level": fp.to_decimal(int(tree.level[idx])),
        "children": [recursive_jsonable(tree, c) for c in tree.children[idx]],
    }


@given(random_nested_tree(), st.integers(min_value=0, max_value=U))
@settings(max_examples=60, deadline=None)
def test_newick_matches_recursive_reference(spec, shift):
    """Newick and both JSON writers match recursive references byte for
    byte; the JSON ones match `json.dumps(..., sort_keys=True)`."""
    n, nested = spec
    tree = UltrametricTree.from_nested(n, nested).shift_levels(shift)
    assert tree.to_newick() == recursive_newick(tree)
    doc = {"n": n, "root": recursive_jsonable(tree, tree.root)}
    assert tree.to_json() == json.dumps(doc, sort_keys=True)
    row = np.arange(n, dtype=np.int64) * (shift + 1)
    rep_doc = {
        "base": doc,
        "pivot": 0,
        "pivot_row": [fp.to_decimal(int(v)) for v in row],
    }
    assert TreeMetricRep(tree, 0, row).to_json() == json.dumps(rep_doc, sort_keys=True)


class TestTreeMetricRep:
    def make(self):
        base = from_ultrametric_matrix(two_pair_gadget())
        row = np.array([0, 1, 2, 2], dtype=np.int64) * (U // 4)
        return TreeMetricRep(base, 0, row)

    def test_centroid_symmetry_and_pivot(self):
        rep = self.make()
        m = rep.m_a
        assert rep.centroid_value(1, 2) == rep.centroid_value(2, 1)
        assert rep.centroid_value(0, 3) == 2 * m - rep.pivot_row[3]

    def test_distance_is_base_minus_centroid(self):
        rep = self.make()
        M = rep.induced_matrix()
        for i in range(4):
            for j in range(4):
                assert M[i, j] == rep.distance(i, j)
        assert np.array_equal(M, M.T)
        assert (np.diag(M) == 0).all()

    def test_pivot_row_must_have_zero_at_pivot(self):
        base = from_ultrametric_matrix(two_pair_gadget())
        with pytest.raises(DomainError):
            TreeMetricRep(base, 0, np.array([1, 1, 2, 2], dtype=np.int64))

    def test_json_roundtrip(self):
        rep = self.make()
        again = TreeMetricRep.from_json(rep.to_json())
        assert np.array_equal(again.induced_matrix(), rep.induced_matrix())
        assert again.pivot == rep.pivot
