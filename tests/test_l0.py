import numpy as np
import pytest

from streamfit import fixedpoint as fp
from streamfit.evaluate import cost
from streamfit.l0fit import SketchBudgetError, fit_l0
from streamfit.oracles import brute_correlation
from streamfit.sketches import SketchConfig
from streamfit.streams import GeneratorSpec, StreamSource, generate
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

    @pytest.mark.parametrize("n", [1, 2, 17])
    def test_peak_words_is_the_matrix(self, n):
        src, _ = planted(n, 3)
        assert fit_l0(src).report.peak_words == n * n


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
