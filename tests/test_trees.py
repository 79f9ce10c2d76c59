import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import streamfit as sf
from streamfit import fixedpoint as fp
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
        D = np.array(
            [
                [0, 5, 2, 2],
                [5, 0, 2, 2],
                [2, 2, 0, 5],
                [2, 2, 5, 0],
            ],
            dtype=np.int64,
        ) * U
        s12_34 = D[0, 1] + D[2, 3]
        s13_24 = D[0, 2] + D[1, 3]
        s14_23 = D[0, 3] + D[1, 2]
        assert (s12_34, s13_24, s14_23) == (10 * U, 4 * U, 4 * U)
        assert not four_point_check(D)

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


@given(random_nested_tree())
@settings(max_examples=80, deadline=None)
def test_induced_matrix_equals_pairwise_distance(spec):
    n, nested = spec
    tree = UltrametricTree.from_nested(n, nested)
    M = tree.induced_matrix()
    expected = np.array(
        [[tree.distance(i, j) for j in range(n)] for i in range(n)], dtype=np.int64
    )
    assert np.array_equal(M, expected)


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


@given(random_nested_tree(), st.integers(min_value=0, max_value=U))
@settings(max_examples=60, deadline=None)
def test_newick_matches_recursive_reference(spec, shift):
    n, nested = spec
    tree = UltrametricTree.from_nested(n, nested).shift_levels(shift)
    assert tree.to_newick() == recursive_newick(tree)


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
