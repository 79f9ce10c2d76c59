"""End-to-end acceptance checks at desk scale.

Each test pins one external guarantee of the toolkit: exactness and the
2-approximation factor of the max-norm fitters, planted-structure recovery
and the regression-pinned oracle ratio of the divisive fitter, clustering
and sketch concentration rates, recursion participation and memory budgets,
the tree-metric reductions, and byte-level determinism of CLI reports.

Pinned calibration constants (measured once, regression-checked since):
  ORACLE_RATIO_BOUND: worst fit_l0 / brute_l0 ratio over the seed-1234
    ensemble of 120 random instances, n in 3..7, 3-value alphabets.
  C_MEM: streaming peak words divided by n * log2(n)^4 under the
    polylog-shaped sketch parameters, measured at n = 1024 and 4096.
"""

import json
import math
import time

import numpy as np
import pytest

import streamfit as sf
from streamfit.agreement import AgreementParams, ExactView, SketchView, s_structural_clustering
from streamfit.cli import main as cli_main
from streamfit.linf import fit_linf_exact, fit_linf_min_decrement
from streamfit.oracles import brute_l0_ultra, brute_l1_ultra, minimax_cert
from streamfit.sketches import SketchConfig, SketchPools
from streamfit.treefit import centroid_transformed_source, fit_l0_tree, fit_linf_tree
from streamfit.trees import four_point_check, is_ultrametric

U = sf.SCALE

ORACLE_RATIO_BOUND = 5.0
C_MEM = 0.007


# -- shared ensembles ----------------------------------------------------------


@pytest.fixture(scope="module")
def linf_ensemble():
    """200 random instances, n in 3..64, mixed alphabets, fully fitted."""
    rng = np.random.default_rng(77)
    rows = []
    t0 = time.time()
    for trial in range(200):
        n = int(rng.integers(3, 65))
        alpha = rng.choice(np.arange(1, 16), size=int(rng.integers(2, 6)), replace=False)
        iu, iv = np.triu_indices(n, 1)
        D = np.zeros((n, n), dtype=np.int64)
        picks = rng.choice(alpha, size=len(iu)) * U
        D[iu, iv] = picks
        D[iv, iu] = picks
        src = sf.StreamSource.from_square(D, order_seed=trial)
        exact = fit_linf_exact(src)
        one_pass = fit_linf_min_decrement(src)
        _, bound = minimax_cert(D)
        rows.append((D, exact, one_pass, bound))
    return rows, time.time() - t0


@pytest.fixture(scope="module")
def ratio_ensemble():
    """The pinned calibration ensemble for the oracle-ratio criteria."""
    rng = np.random.default_rng(1234)
    rows = []
    for trial in range(120):
        n = int(rng.integers(3, 8))
        alpha = sorted(rng.choice(np.arange(1, 9), size=3, replace=False).tolist())
        vals = [int(v) * U for v in alpha]
        iu, iv = np.triu_indices(n, 1)
        D = np.zeros((n, n), dtype=np.int64)
        picks = rng.choice(vals, size=len(iu))
        D[iu, iv] = picks
        D[iv, iu] = picks
        src = sf.StreamSource.from_square(D, order_seed=trial)
        report = sf.cost(sf.fit_l0(src).tree, src)
        rows.append((D, report))
    return rows


@pytest.fixture(scope="module")
def l0_recovery_runs():
    """Planted-ultrametric recovery in both predicate modes."""
    exact_runs = []
    sizes = [16, 32, 64, 128, 256, 512]
    for seed in range(50):
        n = sizes[seed % len(sizes)]
        src, _ = sf.generate(
            sf.GeneratorSpec(kind="planted_ultrametric", n=n, seed=seed)
        )
        res = sf.fit_l0(src)
        exact_runs.append((n, sf.cost(res.tree, src).l0, res.report))

    sketch_runs = []
    sizes = [16, 24, 32, 48, 64, 96, 128]
    for seed in range(50):
        n = sizes[seed % len(sizes)]
        src, _ = sf.generate(
            sf.GeneratorSpec(kind="planted_ultrametric", n=n, seed=1000 + seed)
        )
        cfg = SketchConfig.scaled(n, seed=seed)
        res = sf.fit_l0(src, config=cfg)
        sketch_runs.append((n, sf.cost(res.tree, src).l0, res.report))
    return exact_runs, sketch_runs


def clustered_subset_instance(seed):
    """Disjoint planted cliques fully inside S, spare far vertices outside."""
    rng = np.random.default_rng((seed, 61))
    k = int(rng.integers(2, 5))
    sizes = rng.integers(12, 24, size=k)
    n_out = int(rng.integers(4, 12))
    n = int(sizes.sum()) + n_out
    perm = rng.permutation(n)
    lo, hi = 1 * U, 3 * U
    D = np.full((n, n), hi, dtype=np.int64)
    groups = []
    pos = 0
    for sz in sizes:
        members = perm[pos : pos + int(sz)]
        groups.append(np.sort(members))
        D[np.ix_(members, members)] = lo
        pos += int(sz)
    np.fill_diagonal(D, 0)
    s_vertices = np.sort(np.concatenate(groups))
    return D, s_vertices, groups, lo


# -- criteria ------------------------------------------------------------------


def test_01_linf_two_pass_is_exact(linf_ensemble):
    rows, elapsed = linf_ensemble
    assert len(rows) == 200
    for D, exact, _, bound in rows:
        assert exact.optimal_cost == bound
        assert int(np.abs(exact.tree.induced_matrix() - D).max()) == exact.optimal_cost
    assert elapsed < 60


def test_02_linf_single_pass_factor_two(linf_ensemble):
    rows, _ = linf_ensemble
    for D, exact, one_pass, _ in rows:
        M = one_pass.induced_matrix()
        assert (M <= D).all()
        assert is_ultrametric(M)
        assert int(np.abs(M - D).max()) == 2 * exact.optimal_cost


def test_03_l0_noiseless_recovery(l0_recovery_runs):
    exact_runs, sketch_runs = l0_recovery_runs
    assert all(c == 0 for _, c, _ in exact_runs)
    sketch_hits = sum(c == 0 for _, c, _ in sketch_runs)
    assert sketch_hits >= 45  # >= 90% of 50 seeds


def test_04_l0_oracle_ratio_pinned(ratio_ensemble):
    for D, report in ratio_ensemble:
        opt, _ = brute_l0_ultra(D)
        if opt == 0:
            assert report.l0 == 0
        else:
            assert report.l0 <= ORACLE_RATIO_BOUND * opt


def test_05_l1_within_gap_scaled_optimum(ratio_ensemble):
    for D, report in ratio_ensemble:
        opt1, _ = brute_l1_ultra(D)
        if opt1 == 0:
            assert report.l1 == 0
        else:
            gap = report.gap_Delta / report.gap_delta
            assert report.l1 <= ORACLE_RATIO_BOUND * gap * opt1


def test_06_structural_clustering_guarantees():
    def groups_contained(result, groups):
        clusters = [set(c) for c in result.to_lists()]
        return all(
            any(set(int(x) for x in g) <= c for c in clusters) for g in groups
        )

    for seed in range(1000):
        D, s_vertices, groups, lo = clustered_subset_instance(seed)
        result = s_structural_clustering(
            s_vertices, lo, AgreementParams(),
            ExactView(*sf.StreamSource.from_square(D).ranks()),
        )
        # partition validity and everywhere-density are asserted inside the
        # call; group containment is the planted expectation
        assert groups_contained(result, groups)
        for cluster in result.clusters:
            if len(cluster) >= 2:
                adj = D[np.ix_(cluster, cluster)] <= lo
                np.fill_diagonal(adj, True)
                assert (3 * adj.sum(axis=1) >= 2 * len(cluster)).all()

    sketch_hits = 0
    sketch_trials = 40
    for seed in range(sketch_trials):
        D, s_vertices, groups, lo = clustered_subset_instance(seed)
        n = D.shape[0]
        pools = SketchPools(SketchConfig.scaled(n, seed=seed), n)
        u, v, d = sf.StreamSource.from_square(D, order_seed=seed).arrays()
        pools.bulk_ingest(u, v, d)
        result = s_structural_clustering(
            s_vertices, lo, AgreementParams(), SketchView(pools, 0)
        )
        sketch_hits += groups_contained(result, groups)
    assert sketch_hits >= math.ceil(0.95 * sketch_trials)


def test_07_sketch_concentration_two_shell():
    n, k1 = 512, 200
    d1, d2, dfar = 2 * U, 6 * U, 8 * U
    D = np.full((n, n), dfar, dtype=np.int64)
    np.fill_diagonal(D, 0)
    D[0, 1 : k1 + 1] = D[1 : k1 + 1, 0] = d1
    D[0, k1 + 1 :] = D[k1 + 1 :, 0] = d2
    w = 4 * U
    true_deg = k1 + 1  # closed neighborhood of vertex 0 at threshold w
    u, v, d = sf.StreamSource.from_square(D).arrays()

    zeta, lam = 0.05, 0.25
    trials = 1000
    ok_size = ok_deg = 0
    for seed in range(trials):
        cfg = SketchConfig(
            close_capacity=8,
            sample_factor=96,
            min_size=8,
            instance_count=1,
            seed=seed,
            zeta=zeta,
        )
        pools = SketchPools(cfg, n)
        pools.bulk_ingest(u, v, d)
        (rung,) = pools.rungs([0], w, 0)
        assert rung >= 0
        s = pools.sizes[rung]
        _, weights, _ = pools.entries(0, s, s, [0])
        gw = weights[-1]
        prob = cfg.sample_probability(s)
        size_est = weights.searchsorted(gw, side="right") / prob + 1
        ok_size += (1 - 5 * zeta) * true_deg <= size_est <= (1 + 5 * zeta) * true_deg
        (deg_est,) = pools.degrees([0], w, 0)
        ok_deg += abs(deg_est - true_deg) <= lam * true_deg
    assert ok_size >= math.ceil(0.95 * trials)
    assert ok_deg >= math.ceil(0.95 * trials)


def test_08_recursion_participation_bound(l0_recovery_runs):
    exact_runs, sketch_runs = l0_recovery_runs
    for n, _, report in exact_runs + sketch_runs:
        assert report.participation_bound == 8 * math.ceil(math.log2(n))
        assert report.max_participation <= report.participation_bound


def test_09_streaming_memory_budget():
    peaks = {}
    for n in (2**10, 2**12):
        src, _ = sf.generate(
            sf.GeneratorSpec(kind="planted_ultrametric", n=n, seed=0)
        )
        pools = SketchPools(SketchConfig.polylog_shape(n, seed=0), n)
        u, v, d = src.arrays()
        pools.bulk_ingest(u, v, d)
        peaks[n] = pools.peak_words
        assert peaks[n] <= C_MEM * n * math.log2(n) ** 4
    assert peaks[2**12] / (2**12) ** 2 < 0.05


def test_10_tree_metric_linf_chain():
    rng = np.random.default_rng(9)
    alphabet = [4 * U, 5 * U, 6 * U]
    for trial in range(100):
        n = int(rng.integers(4, 65))
        src, _ = sf.generate(
            sf.GeneratorSpec(
                kind="uniform_random", n=n, seed=trial, value_alphabet=alphabet
            )
        )
        D = src.dense()
        rep = fit_linf_tree(src)
        M = rep.induced_matrix()
        err = int(np.abs(M - D).max())
        shifted = centroid_transformed_source(src, src.d, D[0])
        opt = fit_linf_exact(shifted).optimal_cost
        assert err <= 2 * opt
        assert four_point_check(M)
        assert np.array_equal(M[0], D[0])  # pivot distances untouched


def test_11_tree_metric_l0_recovery():
    hits = 0
    for seed in range(50):
        n = [24, 32, 48][seed % 3]
        src, _ = sf.generate(
            sf.GeneratorSpec(kind="planted_tree_metric", n=n, seed=seed)
        )
        res = fit_l0_tree(src, seed=seed)
        M = res.rep.induced_matrix()
        assert four_point_check(M)
        # centroid-shifting the output by its own pivot row is an ultrametric
        row = M[res.rep.pivot]
        shifted = M + 2 * int(row.max()) - np.add.outer(row, row)
        np.fill_diagonal(shifted, 0)
        assert is_ultrametric(shifted)
        hits += sf.cost(res.rep, src).l0 == 0
    assert hits >= 45  # >= 90% of 50 seeds


def test_12_reports_are_deterministic(tmp_path):
    stream = tmp_path / "d.txt"
    assert cli_main([
        "gen", "--kind", "planted_ultrametric", "--n", "32",
        "--seed", "11", "--out", str(stream),
    ]) == 0
    reports = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert cli_main([
            "fit", "--input", str(stream),
            "--structure", "ultrametric", "--objective", "l0",
            "--passes", "1", "--seed", "11", "--mode", "sketch",
            "--report", str(path),
        ]) == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]
    doc = json.loads(reports[0])
    assert doc["seed"] == 11
