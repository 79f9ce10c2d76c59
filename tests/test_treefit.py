import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamfit import agreement, fixedpoint as fp
from streamfit.evaluate import cost
from streamfit.l0fit import fit_l0
from streamfit.linf import fit_linf_exact
from streamfit.streams import GeneratorSpec, StreamSource, generate
from streamfit.treefit import (
    _fit_pivots,
    centroid_transformed_source,
    collect_pivot_rows,
    fit_l0_tree,
    fit_linf_tree,
    select_tree_by_clique,
)
from streamfit.trees import (
    DomainError,
    four_point_check,
    is_ultrametric,
    single_linkage_tree,
)

U = fp.SCALE


def never_fitted(shifted):
    raise AssertionError("a pivot's tree was fitted past the int64 bound")


def reference_max_clique(adj_bits, t):
    """Exact maximum clique over bitset adjacency by branch and bound;
    lexicographically smallest among the maximum cliques."""
    best = []

    def grow(clique, cand_bits):
        nonlocal best
        if not cand_bits:
            if len(clique) > len(best):
                best = clique[:]
            return
        if len(clique) + cand_bits.bit_count() < len(best) + 1:
            return
        bits = cand_bits
        while bits:
            low = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            clique.append(low)
            grow(clique, cand_bits & adj_bits[low] & ~((1 << (low + 1)) - 1))
            clique.pop()

    grow([], (1 << t) - 1)
    return best


def reference_select(pairwise):
    """The consensus winner by a bitset branch and bound at each threshold:
    the lowest member of the first maximum clique of at least half the
    candidates."""
    t = pairwise.shape[0]
    if t == 1:
        return 0
    need = math.ceil(t / 2)
    iu, iv = np.triu_indices(t, k=1)
    for x in np.unique(np.concatenate([[0], pairwise[iu, iv]])).tolist():
        close = pairwise <= agreement.CONSENSUS_FACTOR * x
        np.fill_diagonal(close, False)
        adj_bits = [int(sum(1 << j for j in np.flatnonzero(close[i]))) for i in range(t)]
        clique = reference_max_clique(adj_bits, t)
        if len(clique) >= need:
            return clique[0]
    raise AssertionError("no qualifying clique at the largest threshold")


def path3():
    """Path metric 0 - 2 - 1 with edges 1 and 1 (distance(0,1) via 2 is 2)."""
    D = np.array([[0, 2, 1], [2, 0, 1], [1, 1, 0]], dtype=np.int64) * U
    return D


class TestCentroidTransform:
    def test_pivot_rows_collected(self):
        D = path3()
        src = StreamSource.from_square(D, order_seed=0)
        rows = collect_pivot_rows(src, [0, 2])
        assert np.array_equal(rows, D[[0, 2]])
        # the pivots may come in any order; each keeps its own row
        assert np.array_equal(collect_pivot_rows(src, [2, 1, 0]), D[[2, 1, 0]])
        src, _ = generate(GeneratorSpec(kind="uniform_random", n=16, seed=4))
        D = src.dense()
        pivots = [15, 0, 7, 3, 8]
        assert np.array_equal(collect_pivot_rows(src, pivots), D[pivots])

    @pytest.mark.parametrize("pivots", [[2, 2], [7], [-1], [0, 6]])
    def test_pivots_must_be_distinct_points(self, pivots):
        # a slot array would wrap -1 round to row n - 1, and a repeated
        # pivot would leave its first row zero
        src, _ = generate(GeneratorSpec(kind="uniform_random", n=6, seed=0))
        with pytest.raises(ValueError, match="distinct points of 0..5"):
            collect_pivot_rows(src, pivots)
        assert src.passes_read == 0

    def test_transformed_pair_with_pivot_hits_2m(self):
        D = path3()
        src = StreamSource.from_square(D, order_seed=0)
        row = D[0]
        m = int(row.max())
        shifted = centroid_transformed_source(src, src.d, row).dense()
        # any pair containing the pivot lands exactly at 2m
        assert shifted[0, 1] == 2 * m
        assert shifted[0, 2] == 2 * m

    def test_transform_of_tree_metric_is_ultrametric(self):
        for seed in range(5):
            src, _ = generate(
                GeneratorSpec(kind="planted_tree_metric", n=16, seed=seed)
            )
            D = src.dense()
            shifted = centroid_transformed_source(src, src.d, D[0]).dense()
            assert is_ultrametric(shifted)

    def test_shift_moves_one_buffer_from_pivot_to_pivot(self):
        # D + C(row a), shifted on to row b, is the transform of D for b
        src, _ = generate(GeneratorSpec(kind="planted_tree_metric", n=16, seed=2))
        D = src.dense()
        d = src.d
        prior = 0
        for pivot in (0, 5, 11, 3):
            moved = centroid_transformed_source(src, d, D[pivot], prior)
            fresh = centroid_transformed_source(src, src.d, D[pivot])
            assert np.array_equal(moved.dense(), fresh.dense())
            prior = D[pivot]

    def test_shift_past_int64_raises_domain_error(self):
        # 2 max(row) passes the int64 range on the first pivot, so no
        # pivot's tree is fitted
        top = 8 * 10**18
        src = StreamSource(3, [0, 0, 1], [1, 2, 2], [top, top, 1])
        with pytest.raises(DomainError, match="int64"):
            _fit_pivots(src, [0], never_fitted)

    def test_non_metric_shift_past_int64_raises_domain_error(self):
        # 2 max(row) fits, but D(1, 2) + C(1, 2) = D(1, 2) + 2m - 2 would
        # wrap; the check bounds every entry by max D + 2m
        big = int(np.iinfo(np.int64).max)
        m = 10**18
        for d12, fits in ((big - 2 * m, True), (big - 2 * m + 3, False)):
            src = StreamSource(
                4, [0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3], [1, 1, m, d12, m, m]
            )
            if fits:
                seen = []

                def fit_base(shifted):
                    seen.append(shifted.dense())
                    return single_linkage_tree(4, [(1, 0, k) for k in (1, 2, 3)])

                _fit_pivots(src, [0], fit_base)
                assert seen[0][1, 2] == big - 2
            else:
                with pytest.raises(DomainError):
                    _fit_pivots(src, [0], never_fitted)

    def test_shift_check_takes_the_prior_centroid_back_out(self):
        # D + C(0) reaches 2X; moving on to pivot 1, next to pivot 0, keeps
        # every entry at most 2X, though 2X plus twice pivot 1's row
        # passes the int64 range
        x = 3 * 10**18
        D = np.array([[0, 1, x], [1, 0, x], [x, x, 0]], dtype=np.int64)
        src = StreamSource.from_square(D, order_seed=0)
        d = src.d
        assert centroid_transformed_source(src, d, D[0]).dense().max() == 2 * x
        moved = centroid_transformed_source(src, d, D[1], D[0]).dense()
        assert np.array_equal(
            moved, centroid_transformed_source(src, src.d, D[1]).dense()
        )

    def test_every_pivot_is_bounded_by_max_d_and_its_own_row(self):
        # each pivot's D + C peaks at 2X, and max D + 2 max(row) = 3X fits
        # int64 for each; a bound read from the buffer after the shift to
        # pivot 1 counts pivot 1's centroid again and refuses pivot 2
        x = 3 * 10**18
        D = np.array([[0, 1, x], [1, 0, x], [x, x, 0]], dtype=np.int64)
        seen = []

        def fit_base(shifted):
            seen.append(shifted.dense())
            return fit_l0(shifted).tree

        _fit_pivots(StreamSource.from_square(D, order_seed=0), [0, 1, 2], fit_base)
        for pivot, moved in enumerate(seen):
            fresh = StreamSource.from_square(D, order_seed=0)
            want = centroid_transformed_source(fresh, fresh.d, D[pivot])
            assert np.array_equal(moved, want.dense())
        assert len(seen) == 3 and max(m.max() for m in seen) == 2 * x

    @pytest.mark.parametrize("fit", [fit_linf_tree, fit_l0_tree])
    def test_tree_fits_raise_domain_error_past_int64(self, fit):
        top = 8 * 10**18
        with pytest.raises(DomainError, match="int64"):
            fit(StreamSource(3, [0, 0, 1], [1, 2, 2], [top, top, 1]))

    def test_each_pivot_source_holds_d_plus_c_for_every_pair(self):
        """Pass 1 arrives permuted by the order seed, and each pivot's
        source holds D + C of that pivot's row at every pair; a derived
        source serves its passes in canonical order."""
        src, _ = generate(
            GeneratorSpec(kind="uniform_random", n=12, seed=5, noise_k=0)
        )
        D = src.dense()
        seen = []

        def fit_base(shifted):
            seen.append(shifted)
            return fit_l0(shifted).tree

        pivots = [0, 4, 9]
        permuted = StreamSource.from_square(D, order_seed=7)
        _fit_pivots(permuted, pivots, fit_base)
        assert len(seen) == len(pivots)
        for pivot, shifted in zip(pivots, seen):
            row = D[pivot]
            C = 2 * row.max() - row[:, None] - row[None, :]
            np.fill_diagonal(C, 0)
            assert np.array_equal(shifted.dense(), D + C)
            u, v, d = shifted.arrays()
            assert np.array_equal(u, shifted.u) and np.array_equal(v, shifted.v)


class TestLinfTree:
    def test_exact_on_tree_metric(self):
        for seed in range(5):
            src, _ = generate(
                GeneratorSpec(kind="planted_tree_metric", n=20, seed=seed)
            )
            D = src.dense()
            rep = fit_linf_tree(src)
            assert np.array_equal(rep.induced_matrix(), D)
            assert four_point_check(rep.induced_matrix())

    def test_two_points(self):
        D = np.array([[0, 3], [3, 0]], dtype=np.int64) * U
        rep = fit_linf_tree(StreamSource.from_square(D, order_seed=1))
        assert np.array_equal(rep.induced_matrix(), D)

    def test_pivot_distances_preserved(self):
        # the fit never errs on pairs containing the pivot
        src, _ = generate(GeneratorSpec(kind="uniform_random", n=12, seed=3))
        D = src.dense()
        rep = fit_linf_tree(src, pivot=4)
        M = rep.induced_matrix()
        assert np.array_equal(M[4], D[4])

    def test_error_bounded_by_twice_shifted_optimum(self):
        for seed in range(8):
            src, _ = generate(
                GeneratorSpec(kind="uniform_random", n=10, seed=40 + seed)
            )
            D = src.dense()
            rep = fit_linf_tree(src)
            err = int(np.abs(rep.induced_matrix() - D).max())
            shifted = centroid_transformed_source(src, src.d, D[0])
            opt = fit_linf_exact(shifted).optimal_cost
            assert err <= 2 * opt

    def test_invalid_pivot(self):
        src, _ = generate(GeneratorSpec(kind="uniform_random", n=5, seed=0))
        with pytest.raises(ValueError):
            fit_linf_tree(src, pivot=5)


class TestCliqueSelection:
    def test_single_candidate(self):
        assert select_tree_by_clique(np.zeros((1, 1), dtype=np.int64)) == 0

    def test_majority_of_identical_fits_wins(self):
        # candidates 0,1,2 identical; 3 far away from everything
        P = np.zeros((4, 4), dtype=np.int64)
        P[3, :3] = P[:3, 3] = 1000
        assert select_tree_by_clique(P) == 0

    def test_winner_is_lowest_label(self):
        P = np.zeros((3, 3), dtype=np.int64)
        P[0, 1] = P[1, 0] = 1000
        P[0, 2] = P[2, 0] = 1000
        # {1, 2} is the only 2-clique at threshold 0; candidate 1 has the
        # smaller index
        assert select_tree_by_clique(P) == 1

    def test_threshold_slack_factor(self):
        # majority pair at dissimilarity 24 qualifies already at x = 1
        P = np.array([[0, 24], [24, 0]], dtype=np.int64)
        assert select_tree_by_clique(P) == 0

    def test_rejects_asymmetric(self):
        P = np.array([[0, 1], [2, 0]], dtype=np.int64)
        with pytest.raises(ValueError):
            select_tree_by_clique(P)

    def test_rejects_too_many_candidates(self):
        with pytest.raises(ValueError):
            select_tree_by_clique(np.zeros((33, 33), dtype=np.int64))

    # few values: ties and whole cliques appear at one threshold; many:
    # nearly every pair has its own threshold
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), t=st.integers(1, 10), top=st.sampled_from([2, 60, 10**12]))
    def test_scan_matches_branch_and_bound(self, data, t, top):
        cells = data.draw(st.lists(st.integers(0, top), min_size=t * t, max_size=t * t))
        P = np.array(cells, dtype=np.int64).reshape(t, t)
        P = np.minimum(P, P.T)
        assert select_tree_by_clique(P) == reference_select(P)


class TestL0Tree:
    def test_recovers_tree_metric(self):
        hits = 0
        for seed in range(10):
            src, _ = generate(
                GeneratorSpec(kind="planted_tree_metric", n=48, seed=seed)
            )
            res = fit_l0_tree(src, seed=seed)
            hits += cost(res.rep, src).l0 == 0
            assert res.rep.pivot in res.pivots
        assert hits == 10

    def test_pivot_count_is_log(self):
        src, _ = generate(GeneratorSpec(kind="planted_tree_metric", n=48, seed=0))
        res = fit_l0_tree(src, seed=1)
        assert len(res.pivots) == 4  # ceil(ln 48)
        assert len(set(res.pivots)) == len(res.pivots)

    def test_pairwise_matrix_shape(self):
        src, _ = generate(GeneratorSpec(kind="planted_tree_metric", n=20, seed=2))
        res = fit_l0_tree(src, seed=0)
        t = len(res.pivots)
        assert res.pairwise_l0.shape == (t, t)
        assert (np.diag(res.pairwise_l0) == 0).all()

    def test_output_passes_four_point(self):
        src, _ = generate(GeneratorSpec(kind="uniform_random", n=16, seed=6))
        res = fit_l0_tree(src, seed=3)
        M = res.rep.induced_matrix()
        assert np.array_equal(M, M.T)
        assert four_point_check(M)

    def test_peak_memory_is_pinned_at_n_512(self):
        """Pass 1 is read once and its distances are shifted in place from
        pivot to pivot, and each pivot fit reads its pass as uint16 ranks,
        so the fit's peak stays under 3.0 n x n int64 matrices (it reads
        about 2.77, set by the pivot fits; an int64 distance matrix in each
        pivot fit made it 3.85). Holding pass 1's distances beside a
        shifted copy lifted it by about 0.5. The consensus counts
        disagreements a slice of pairs at a time; holding every fit's
        distances at once made it set the peak, at 3.95."""
        n = 512
        src, _ = generate(
            GeneratorSpec(kind="planted_tree_metric", n=n, seed=1, noise_k=n // 2)
        )
        fit_l0_tree(generate(GeneratorSpec(kind="planted_tree_metric", n=8, seed=0))[0])
        tracemalloc.start()
        try:
            fit_l0_tree(src, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.0 * n * n * 8
