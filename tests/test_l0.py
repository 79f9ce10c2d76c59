from fractions import Fraction

import numpy as np
import pytest

from streamfit import agreement, fixedpoint as fp, l0fit
from streamfit.agreement import ExactView
from streamfit.evaluate import cost
from streamfit.l0fit import SketchBudgetError, fit_l0
from streamfit.oracles import brute_correlation
from streamfit.sketches import CompressedSet, SketchConfig
from streamfit.streams import GeneratorSpec, StreamSource, generate
from streamfit.treefit import centroid_transformed_source
from streamfit.trees import is_ultrametric

U = fp.SCALE


def planted(n, seed, noise_k=0):
    src, truth = generate(
        GeneratorSpec(kind="planted_ultrametric", n=n, seed=seed, noise_k=noise_k)
    )
    return src, truth


class TestExactMode:
    def test_recovers_planted_ultrametric(self):
        for seed in range(8):
            src, truth = planted(40, seed)
            res = fit_l0(src)
            assert np.array_equal(
                res.tree.induced_matrix(), truth.induced_matrix()
            )
            assert res.report.instances_consumed == 0

    def test_participation_within_bound(self):
        for seed in range(4):
            src, _ = planted(64, seed)
            res = fit_l0(src)
            assert res.report.max_participation <= res.report.participation_bound

    def test_levels_come_from_input_values(self):
        src, _ = planted(32, 3)
        D = src.dense()
        allowed = set(np.unique(D[np.triu_indices(32, 1)]).tolist())
        res = fit_l0(src)
        assert set(res.tree.level[32:].tolist()) <= allowed

    def test_single_point(self):
        res = fit_l0(StreamSource(1, [], [], []))
        assert res.tree.n == 1

    def test_two_points(self):
        D = np.array([[0, 3], [3, 0]], dtype=np.int64) * U
        res = fit_l0(StreamSource.from_square(D))
        assert res.tree.distance(0, 1) == 3 * U

    def test_output_is_ultrametric(self):
        for seed in range(5):
            src, _ = generate(
                GeneratorSpec(kind="uniform_random", n=24, seed=seed)
            )
            res = fit_l0(src)
            assert is_ultrametric(res.tree.induced_matrix())

    def test_clean_two_valued_costs_zero(self):
        for seed in range(6):
            src, _ = generate(GeneratorSpec(kind="two_valued", n=9, seed=seed))
            res = fit_l0(src)
            assert cost(res.tree, src).l0 == 0

    def test_noisy_two_valued_stays_valid(self):
        # a single flipped edge can shatter a small cluster into singletons
        # (one bad neighbor already exceeds the epsilon fraction at degree
        # below 1/epsilon), so only validity and an optimum lower bound hold
        for seed in range(6):
            src, _ = generate(
                GeneratorSpec(kind="two_valued", n=9, seed=seed, noise_k=1)
            )
            D = src.dense()
            res = fit_l0(src)
            got = cost(res.tree, src).l0
            assert got >= brute_correlation(D)
            assert is_ultrametric(res.tree.induced_matrix())

    # from n = 202 on, each call clusters off one singleton and then peels
    # rims; every rim must meet the remainder at the level it was peeled
    # below, not at the call's own level
    @pytest.mark.parametrize("n", [202, 250, 300, 1000])
    def test_recovers_noiseless_chain(self, n):
        i = np.arange(n)
        D = (np.maximum(i[:, None], i) + 1) * U
        np.fill_diagonal(D, 0)
        src = StreamSource.from_square(D)
        assert cost(fit_l0(src).tree, src).l0 == 0

    def test_split_and_stop_rules_are_read_from_the_table(self, monkeypatch):
        # with only the table's two 99/100 entries lowered, each call on the
        # chain drops a quarter of S rather than about one percent. The
        # peel stop alone lowers participation, and the cluster split
        # lowers it further only beside it, so a copy of either rule left
        # in the fitter keeps one of the two drops from showing
        def chain_fit():
            i = np.arange(250)
            D = (np.maximum(i[:, None], i) + 1) * U
            np.fill_diagonal(D, 0)
            src = StreamSource.from_square(D)
            res = fit_l0(src)
            assert cost(res.tree, src).l0 == 0
            return res.report.max_participation

        before = chain_fit()
        monkeypatch.setattr(agreement, "PEEL_STOP", Fraction(3, 4))
        stop_only = chain_fit()
        monkeypatch.setattr(agreement, "CLUSTER_SPLIT", Fraction(3, 4))
        assert chain_fit() < stop_only < before

    @pytest.mark.parametrize("n", [250, 400])
    def test_recovers_noiseless_shuffled_caterpillar(self, n):
        # point rank[v] joins the spine at levels[rank[v]]; the gaps vary
        rng = np.random.default_rng(n)
        levels = np.cumsum(rng.integers(1, 5, size=n))
        rank = rng.permutation(n)
        D = levels[np.maximum(rank[:, None], rank)] * U
        np.fill_diagonal(D, 0)
        src = StreamSource.from_square(D)
        assert cost(fit_l0(src).tree, src).l0 == 0

    @pytest.mark.parametrize("n", [1, 2, 17])
    def test_peak_words_is_the_matrix(self, n):
        src, _ = planted(n, 3)
        assert fit_l0(src).report.peak_words == n * n


class RowLog(np.ndarray):
    """A matrix that logs how many rows each integer-array read gathers."""

    def __getitem__(self, index):
        if isinstance(index, np.ndarray) and index.ndim == 1:
            self.log.append(len(index))
        return super().__getitem__(index).view(np.ndarray)


def low_rows_per_probe(D, weights, size_s, big, w_check):
    """The rows each probe of a peel loop on `big` finds below the dense
    cut-off, from a direct count over every row at every probe, with the
    rules' fractions compared exactly."""
    dense_share = agreement.DENSE_CUT * size_s
    rim_share = agreement.RIM_CUT * size_s
    stop = agreement.PEEL_STOP * size_s
    cur, w_probe, low = big, weights.pred(w_check), []
    while len(cur) > stop:
        degs = (D[cur] <= w_probe).sum(axis=1)
        dense = [d > dense_share for d in degs.tolist()]
        low.append(dense.count(False))
        if dense.count(True) <= stop:
            break
        cur = cur[[d >= rim_share for d in degs.tolist()]]
        w_probe = weights.pred(w_probe)
    return low


def test_peel_loop_reads_the_rows_twice_plus_the_low_rows(monkeypatch):
    """On a tree-metric pivot fit, a peel loop gathers the rows of its
    dominant cluster at its first probe and once more to partition them;
    after that it reads again only the rows that fail the dense test."""
    src, _ = generate(
        GeneratorSpec(kind="planted_tree_metric", n=128, seed=4, noise_k=128)
    )
    D0 = src.dense()
    shifted = centroid_transformed_source(128, *src.arrays(), D0[0])
    log, loops = [], []

    class SpyView(ExactView):
        def __init__(self, matrix):
            super().__init__(matrix)
            self.matrix = self.matrix.view(RowLog)
            self.matrix.log = log

        def claims(self, s_arr, w, params):
            before = len(log)
            claims = super().claims(s_arr, w, params)
            del log[before:]
            return claims

    clustering = l0fit.s_structural_clustering

    def spy_clustering(s_arr, w, params, view):
        result = clustering(s_arr, w, params, view)
        loops.append((len(log), len(s_arr), w, result.clusters))
        return result

    monkeypatch.setattr(l0fit, "ExactView", SpyView)
    monkeypatch.setattr(l0fit, "s_structural_clustering", spy_clustering)
    fit_l0(shifted)

    D = shifted.dense()
    weights = CompressedSet(D[np.triu_indices(128, 1)])
    peeled, probes = 0, 0
    ends = [start for start, *_ in loops[1:]] + [len(log)]
    for (start, size_s, w, clusters), end in zip(loops, ends):
        reads = log[start:end]
        big = [c for c in clusters if len(c) > agreement.CLUSTER_SPLIT * size_s]
        if not big:
            assert reads == []
            continue
        low = low_rows_per_probe(D, weights, size_s, big[0], w)
        peeled += 1
        probes += len(low)
        # the first probe reads every row, a second one reads them again
        # to partition them, and later probes read the low rows alone
        again = [len(big[0]), *low[1:]] if len(low) > 1 else []
        assert reads == [len(big[0]), *again]
    # the loops probe many times each, so a fresh gather per probe shows
    assert probes > 4 * peeled > 0


class TestSketchMode:
    def test_recovers_planted_ultrametric(self):
        hits = 0
        for seed in range(6):
            src, truth = planted(48, seed + 20)
            cfg = SketchConfig.scaled(48, seed=seed)
            res = fit_l0(src, config=cfg)
            hits += np.array_equal(
                res.tree.induced_matrix(), truth.induced_matrix()
            )
            assert res.report.instances_consumed >= 1
            assert res.report.instances_consumed <= cfg.instance_count
        assert hits >= 5

    def test_budget_error_when_instances_exhausted(self):
        src, _ = planted(64, 1)
        cfg = SketchConfig.scaled(64, seed=0, instance_count=1)
        with pytest.raises(SketchBudgetError):
            fit_l0(src, config=cfg)

    def test_peak_words_reported(self):
        src, _ = planted(32, 2)
        cfg = SketchConfig.scaled(32, seed=0)
        res = fit_l0(src, config=cfg)
        assert res.report.peak_words > 0

    @pytest.mark.parametrize(
        "n, seed, noise_k, fits_at",
        [(48, 21, 24, 2), (60, 1, 0, 3), (40, 3, 0, 4), (80, 4, 40, 1)],
    )
    def test_instances_consumed_is_the_smallest_budget_that_fits(
        self, n, seed, noise_k, fits_at
    ):
        src, _ = planted(n, seed, noise_k)

        def fit(instance_count):
            cfg = SketchConfig.scaled(n, seed=seed, instance_count=instance_count)
            return fit_l0(src, config=cfg)

        if fits_at > 1:
            with pytest.raises(SketchBudgetError):
                fit(fits_at - 1)
        assert fit(fits_at).report.instances_consumed == fits_at

    def test_single_point_reads_no_instance(self):
        cfg = SketchConfig.scaled(1, seed=0)
        res = fit_l0(StreamSource(1, [], [], []), config=cfg)
        assert res.report.instances_consumed == 0


@pytest.mark.parametrize(
    "mode, kind, n, seed, noise_k, expected",
    [
        # recovers the planted levels: leaves at several depths
        ("exact", "planted_ultrametric", 60, 1, 0, (70, 4, 0, 3600)),
        # mostly singleton leaves, some one level below the root's children
        ("sketch", "planted_ultrametric", 48, 21, 24, (50, 3, 2, 488508)),
        # one point makes no call; two points make the top call and the two
        # singleton leaves it splits into, and only the top call reads an
        # instance
        ("exact", "planted_ultrametric", 1, 1, 0, (0, 0, 0, 1)),
        ("exact", "planted_ultrametric", 2, 1, 0, (3, 2, 0, 4)),
        ("sketch", "planted_ultrametric", 1, 1, 0, (0, 0, 0, 8)),
        ("sketch", "planted_ultrametric", 2, 1, 0, (3, 2, 1, 44)),
    ],
)
def test_report_counts_are_pinned(mode, kind, n, seed, noise_k, expected):
    """Recursion calls and participation count every singleton leaf as the
    recursion call that returns it; sketch instances count only the calls
    that cluster, since a singleton reads no instance."""
    src, _ = generate(GeneratorSpec(kind=kind, n=n, seed=seed, noise_k=noise_k))
    config = SketchConfig.scaled(n, seed=seed) if mode == "sketch" else None
    report = fit_l0(src, config=config).report
    got = (
        report.recursion_calls,
        report.max_participation,
        report.instances_consumed,
        report.peak_words,
    )
    assert got == expected
