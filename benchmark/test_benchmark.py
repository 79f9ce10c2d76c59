"""Tests of the benchmark itself, at tiny n.

    python3 -m pytest -q benchmark
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
import tracing  # noqa: E402

program = bench.load_program()

from streamfit import cli, l0fit, linf, treefit, trees  # noqa: E402
from streamfit.evaluate import cost  # noqa: E402
from streamfit.streams import StreamSource  # noqa: E402


def fit_args(prefix):
    return next(w.fit_args for name, w in bench.WORKLOADS.items() if name.startswith(prefix))


TINY = {
    "linf": bench.Workload("uniform_random", 14, 0, fit_args("linf-"), "t"),
    "exact": bench.Workload("planted_ultrametric", 20, 8, fit_args("l0-exact-"), "t"),
    "sketch": bench.Workload("planted_ultrametric", 16, 4, fit_args("l0-sketch-"), "t"),
    "tree": bench.Workload("planted_tree_metric", 14, 6, fit_args("tree-"), "t"),
}


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK", tmp_path)
    monkeypatch.setattr(bench, "SETUP_SECONDS", 0.0)
    return tmp_path


def make_runner(name, workdir, seed=3):
    workload = TINY[name]
    (instance,), _ = bench.set_up(workload, [seed], workdir)
    return bench.Runner(program, workload, instance, workdir), instance


def traced_job(runner):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.start_job()
        result = runner.job()
    finally:
        tracer.uninstall()
    return tracer, result


@pytest.mark.parametrize("name", sorted(TINY))
def test_spans_nest_and_self_times_sum_to_the_job(name, work):
    runner, _ = make_runner(name, work)
    tracer, result = traced_job(runner)
    assert result.error is None
    by_id = {span[0]: span for span in tracer.spans}
    for span_id, parent, job, span_name, start, end in tracer.spans:
        assert start <= end
        if parent < 0:
            assert span_name == tracing.ROOT
            continue
        _, _, parent_job, _, parent_start, parent_end = by_id[parent]
        assert parent_job == job
        assert parent_start <= start and end <= parent_end
    root, values = tracer.job_layers(0)
    self_sum = sum(values[metric] for metric in tracing.SELF_TIMES)
    assert self_sum == pytest.approx(root, abs=1e-9)
    assert root <= result.seconds


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_jobs_write_identical_outputs(name, work):
    runner, _ = make_runner(name, work)
    plain = runner.job()
    plain_tree = runner.tree_path.read_bytes()
    _, traced = traced_job(runner)
    assert plain.error is None and traced.error is None
    assert traced.report == plain.report
    assert runner.tree_path.read_bytes() == plain_tree
    assert runner.failed == 0


def test_tampered_cost_counts_as_a_failed_job(work):
    class Tampering:
        """cli stand-in that raises the reported cost by one pair."""

        @staticmethod
        def main(argv):
            code = cli.main(argv)
            path = Path(argv[argv.index("--report") + 1])
            doc = json.loads(path.read_text())
            doc["cost"]["l0"] += 1
            path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
            return code

    runner, _ = make_runner("exact", work)
    runner.program = type("Program", (), {"cli": Tampering})
    result = runner.job()
    assert result.error is not None and "recount" in result.error
    assert (runner.attempted, runner.failed) == (1, 1)


def test_later_job_with_different_bytes_fails(work):
    runner, instance = make_runner("linf", work)
    check = bench.OutputCheck(TINY["linf"], instance)
    runner.job()
    report, tree = runner.report_path.read_bytes(), runner.tree_path.read_bytes()
    assert check.verdict(report, tree) is None
    assert check.verdict(report + b" ", tree) is not None


def test_linf_check_uses_the_minimax_bound(work):
    runner, instance = make_runner("linf", work)
    runner.job()
    doc = json.loads(runner.report_path.read_text())
    doc["optimal_cost"] = doc["cost"]["linf"] = "0.5" if doc["optimal_cost"] != "0.5" else "1"
    check = bench.OutputCheck(TINY["linf"], instance)
    error = check.verdict(json.dumps(doc).encode(), runner.tree_path.read_bytes())
    assert error is not None and "minimax" in error


@pytest.mark.parametrize("name", sorted(TINY))
def test_recount_matches_program_cost(name, work):
    runner, instance = make_runner(name, work)
    runner.job()
    text = runner.tree_path.read_text()
    fitted = (
        trees.TreeMetricRep.from_json(text)
        if '"pivot"' in text
        else trees.UltrametricTree.from_json(text)
    )
    expected = cost(fitted, StreamSource.from_square(instance.matrix)).l0
    assert bench.recount_l0(text, instance.matrix) == expected


def test_install_patches_every_lookup_site_and_uninstall_restores():
    originals = (linf.single_linkage_tree, cli.fit_l0, treefit.fit_l0, l0fit.fit_l0)
    tracer = tracing.Tracer()
    patched = tracer.install()
    try:
        for owner, name in (
            ("streamfit.linf", "single_linkage_tree"),
            ("streamfit.trees", "single_linkage_tree"),
            ("streamfit.cli", "fit_l0"),
            ("streamfit.treefit", "fit_l0"),
            ("streamfit.cli", "cost"),
            ("streamfit.l0fit", "s_structural_clustering"),
        ):
            assert (owner, name) in patched
        assert cli.fit_l0 is treefit.fit_l0 is not originals[1]
        assert cli.fit_l0.__wrapped__ is originals[1]
    finally:
        tracer.uninstall()
    assert (linf.single_linkage_tree, cli.fit_l0, treefit.fit_l0, l0fit.fit_l0) == originals
    assert "__wrapped__" not in vars(trees.UltrametricTree.induced_matrix)


def test_every_span_name_has_a_self_time_metric():
    spans = {span for _, _, span in tracing.TARGETS}
    assert spans == set(tracing.SELF_TIMES.values())


def test_moved_count_is_reported(work):
    assert bench.repeat_mismatches("w", 1, {"cost_l0": 5}) == []
    assert bench.repeat_mismatches("w", 1, {"cost_l0": 5}) == []
    moved = bench.repeat_mismatches("w", 1, {"cost_l0": 6})
    assert len(moved) == 1 and "cost_l0" in moved[0]


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(bench.WORKLOADS)
    for entry in doc["workloads"]:
        assert entry["why"] == bench.WORKLOADS[entry["name"]].why
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
def test_main_prints_every_metric_once(trace, work, monkeypatch):
    monkeypatch.setitem(bench.WORKLOADS, "tiny-tree", TINY["tree"])
    out = io.StringIO()
    argv = ["--workload", "tiny-tree", "--seed", "2", "--seconds", "0", "--trace", str(trace)]
    with redirect_stdout(out):
        code = bench.main(argv)
    last = json.loads(out.getvalue().splitlines()[-1])
    assert code == 0 and last["correct"] and last["failed"] == 0
    units = bench.PER_LAYER_UNITS if trace else bench.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in last["metrics"].items()} == units
    jobs = 2 * bench.MIN_TRACED_JOBS if trace else TINY["tree"].instances * bench.MIN_ROUNDS
    assert last["attempted"] >= 1 + jobs
    # a second run of the same code and seed repeats every count
    with redirect_stdout(io.StringIO()):
        assert bench.main(argv) == 0
