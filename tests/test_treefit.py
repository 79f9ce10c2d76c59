import numpy as np
import pytest

from streamfit import fixedpoint as fp
from streamfit.evaluate import cost
from streamfit.linf import fit_linf_exact
from streamfit.streams import GeneratorSpec, StreamSource, generate
from streamfit.treefit import (
    centroid_transformed_source,
    collect_pivot_rows,
    fit_l0_tree,
    fit_linf_tree,
    select_tree_by_clique,
)
from streamfit.trees import four_point_check, is_ultrametric

U = fp.SCALE


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

    def test_transformed_pair_with_pivot_hits_2m(self):
        D = path3()
        src = StreamSource.from_square(D, order_seed=0)
        row = D[0]
        m = int(row.max())
        shifted = centroid_transformed_source(src, row, 0).dense()
        # any pair containing the pivot lands exactly at 2m
        assert shifted[0, 1] == 2 * m
        assert shifted[0, 2] == 2 * m

    def test_transform_of_tree_metric_is_ultrametric(self):
        for seed in range(5):
            src, _ = generate(
                GeneratorSpec(kind="planted_tree_metric", n=16, seed=seed)
            )
            D = src.dense()
            shifted = centroid_transformed_source(src, D[0], 0).dense()
            assert is_ultrametric(shifted)

    def test_transform_preserves_pass_order(self):
        D = path3()
        src = StreamSource.from_square(D, order_seed=7)
        u0, v0, _ = src.arrays(1)
        shifted = centroid_transformed_source(src, D[0], 1)
        u1, v1, _ = shifted.arrays(0)
        assert np.array_equal(u0, u1)
        assert np.array_equal(v0, v1)


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
            shifted = centroid_transformed_source(src, D[0], 0)
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


class TestL0Tree:
    def test_recovers_tree_metric(self):
        hits = 0
        for seed in range(10):
            src, _ = generate(
                GeneratorSpec(kind="planted_tree_metric", n=48, seed=seed)
            )
            res = fit_l0_tree(src, seed=seed)
            hits += cost(res.rep, src).l0 == 0
            assert res.chosen_pivot in res.pivots
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
