import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import streamfit
from streamfit import cli, fixedpoint as fp
from streamfit.cli import main
from streamfit.streams import StreamSource
from streamfit.trees import UltrametricTree


def run(*argv):
    return main(list(argv))


@pytest.fixture
def instance(tmp_path):
    stream = tmp_path / "d.txt"
    truth = tmp_path / "truth.json"
    report = tmp_path / "gen.json"
    code = run(
        "gen",
        "--kind", "planted_ultrametric",
        "--n", "24",
        "--seed", "5",
        "--out", str(stream),
        "--truth-out", str(truth),
        "--report", str(report),
    )
    assert code == 0
    return tmp_path, stream, truth


class TestGen:
    def test_report_and_files(self, instance):
        tmp_path, stream, truth = instance
        doc = json.loads((tmp_path / "gen.json").read_text())
        assert doc["command"] == "gen"
        assert doc["entries"] == 24 * 23 // 2
        src = StreamSource.from_file(stream)
        tree = UltrametricTree.from_json(truth.read_text())
        assert np.array_equal(tree.induced_matrix(), src.dense())

    def test_alphabet_option(self, tmp_path):
        out = tmp_path / "d.txt"
        report = tmp_path / "gen.json"
        assert run(
            "gen", "--kind", "two_valued", "--n", "10", "--seed", "1",
            "--alphabet", "1,2.5", "--out", str(out), "--report", str(report),
        ) == 0
        D = StreamSource.from_file(out).dense()
        vals = set(np.unique(D[np.triu_indices(10, 1)]).tolist())
        assert vals <= {10**9 * 2, 10**9 * 5}
        # the report echoes the spec with the alphabet in decimal
        assert json.loads(report.read_text())["spec"] == {
            "kind": "two_valued", "n": 10, "seed": 1, "noise_k": 0,
            "value_alphabet": ["1", "2.5"],
        }

    @pytest.mark.parametrize(
        "flags, code",
        [
            (("--alphabet", "1,x"), 3),
            (("--alphabet", "1.0000000001"), 3),
            # an odd count of units, which the two-pass linf fit cannot halve
            (("--alphabet", "1,1.0000000005"), 3),
            (("--noise-k", "-1"), 3),
            (("--seed", "-1"), 2),
            (("--seed", str(2**63)), 2),
        ],
        ids=["alphabet-word", "alphabet-digits", "alphabet-odd", "noise-neg",
             "seed-neg", "seed-2^63"],
    )
    def test_bad_values_exit_without_output(self, tmp_path, capsys, flags, code):
        outs = [tmp_path / name for name in ("d.txt", "truth.json", "gen.json")]
        got = run(
            "gen", "--kind", "planted_ultrametric", "--n", "5", *flags,
            "--out", str(outs[0]), "--truth-out", str(outs[1]),
            "--report", str(outs[2]),
        )
        assert got == code
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
        assert not any(out.exists() for out in outs)


class TestFit:
    def test_l0_exact_roundtrip(self, instance, tmp_path):
        _, stream, truth = instance
        tree_out = tmp_path / "fit.json"
        report = tmp_path / "fit-report.json"
        newick = tmp_path / "fit.nwk"
        code = run(
            "fit", "--input", str(stream),
            "--structure", "ultrametric", "--objective", "l0",
            "--passes", "1",
            "--out-tree", str(tree_out), "--out-newick", str(newick),
            "--report", str(report),
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["cost"]["l0"] == 0
        fitted = UltrametricTree.from_json(tree_out.read_text())
        planted = UltrametricTree.from_json(truth.read_text())
        assert fitted == planted
        assert newick.read_text().strip().endswith(";")

    def test_linf_two_pass_reports_certificate(self, instance, tmp_path):
        _, stream, _ = instance
        report = tmp_path / "r.json"
        code = run(
            "fit", "--input", str(stream),
            "--structure", "ultrametric", "--objective", "linf",
            "--passes", "2", "--report", str(report),
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["optimal_cost"] == "0"
        assert doc["cost"]["linf"] == "0"

    def test_tree_fit(self, tmp_path):
        stream = tmp_path / "t.txt"
        run(
            "gen", "--kind", "planted_tree_metric", "--n", "20",
            "--seed", "2", "--out", str(stream),
        )
        report = tmp_path / "r.json"
        code = run(
            "fit", "--input", str(stream),
            "--structure", "tree", "--objective", "linf",
            "--passes", "2", "--report", str(report),
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["pivot"] == 0  # the default when --pivot is absent
        assert doc["cost"]["linf"] == "0"

    def test_caterpillar_newick_of_600_levels(self, tmp_path):
        """D(i,j) = max(i,j) fits exactly to a 599-level caterpillar, deeper
        than a recursive writer can go."""
        n = 600
        idx = np.arange(n, dtype=np.int64)
        D = np.maximum.outer(idx, idx) * fp.SCALE
        np.fill_diagonal(D, 0)
        stream = tmp_path / "chain.txt"
        StreamSource.from_square(D).write_file(stream)
        newick = tmp_path / "chain.nwk"
        tree = tmp_path / "chain.json"
        report = tmp_path / "fit.json"
        assert run(
            "fit", "--input", str(stream), "--structure", "ultrametric",
            "--objective", "linf", "--passes", "2", "--out-tree", str(tree),
            "--out-newick", str(newick), "--report", str(report),
        ) == 0
        assert json.loads(report.read_text())["optimal_cost"] == "0"
        text = newick.read_text()
        assert text.startswith("(" * (n - 1)) and text.endswith(");\n")
        assert text.count("(") == text.count(")") == n - 1
        text = tree.read_text()
        assert text.startswith('{"n": 600, "root": {"children": [')
        assert text.count("{") == text.count("}")
        assert text.count("[") == text.count("]") == n - 1

    def test_path_metric_tree_of_600_points(self, tmp_path, capsys):
        """D(i,j) = |i - j| is a tree metric, fitted exactly on a caterpillar
        base whose tree file is written at any depth. `cost --tree` rejects
        that file with exit 3: the JSON decoder stops near 500 levels."""
        n = 600
        idx = np.arange(n, dtype=np.int64)
        stream = tmp_path / "path.txt"
        D = np.abs(np.subtract.outer(idx, idx)) * fp.SCALE
        StreamSource.from_square(D).write_file(stream)
        tree = tmp_path / "path.json"
        report = tmp_path / "fit.json"
        assert run(
            "fit", "--input", str(stream), "--structure", "tree",
            "--objective", "linf", "--passes", "2", "--out-tree", str(tree),
            "--report", str(report),
        ) == 0
        assert json.loads(report.read_text())["cost"]["l0"] == 0
        text = tree.read_text()
        assert text.startswith('{"base": {"n": 600, "root": {"children": [')
        assert text.count("{") == text.count("}")
        capsys.readouterr()
        assert run("cost", "--input", str(stream), "--tree", str(tree)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_invalid_pass_count_is_usage_error(self, instance):
        _, stream, _ = instance
        assert run(
            "fit", "--input", str(stream),
            "--structure", "ultrametric", "--objective", "l0",
            "--passes", "2",
        ) == 2
        assert run(
            "fit", "--input", str(stream),
            "--structure", "tree", "--objective", "linf",
            "--passes", "1",
        ) == 2


class TestCostCheckOracle:
    def test_cost_of_stored_tree(self, instance, tmp_path):
        _, stream, truth = instance
        report = tmp_path / "c.json"
        code = run(
            "cost", "--input", str(stream), "--tree", str(truth),
            "--p", "0", "--report", str(report),
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["value"] == 0
        assert doc["cost"]["l1"] == "0"

    def test_check_flags(self, instance, tmp_path):
        _, stream, _ = instance
        report = tmp_path / "chk.json"
        assert run("check", "--input", str(stream), "--report", str(report)) == 0
        doc = json.loads(report.read_text())
        assert doc["ultrametric"] is True
        assert doc["four_point"] is True

    def test_oracle_small_instance(self, tmp_path):
        stream = tmp_path / "s.txt"
        run(
            "gen", "--kind", "uniform_random", "--n", "6", "--seed", "3",
            "--out", str(stream),
        )
        report = tmp_path / "o.json"
        assert run(
            "oracle", "--input", str(stream), "--which", "l0",
            "--report", str(report),
        ) == 0
        doc = json.loads(report.read_text())
        assert isinstance(doc["value"], int)

    def test_oracle_reports_unavailable(self, instance, tmp_path):
        _, stream, _ = instance  # n = 24 exceeds the enumeration cap
        report = tmp_path / "o.json"
        assert run(
            "oracle", "--input", str(stream), "--which", "l0",
            "--report", str(report),
        ) == 0
        doc = json.loads(report.read_text())
        assert "unavailable" in doc

    # the time cap bounds the l0 and l1 enumerations; the partition search
    # of correlation has only its size cap
    @pytest.mark.parametrize("which, key", [
        ("l0", "unavailable"), ("l1", "unavailable"), ("correlation", "value"),
    ])
    def test_oracle_time_cap(self, tmp_path, which, key):
        stream = tmp_path / "s.txt"
        run(
            "gen", "--kind", "two_valued", "--n", "7", "--seed", "1",
            "--out", str(stream),
        )
        report = tmp_path / "o.json"
        assert run(
            "oracle", "--input", str(stream), "--which", which,
            "--time-cap", "-1", "--report", str(report),
        ) == 0
        assert key in json.loads(report.read_text())

    # these two_valued streams draw one label for every point, so every
    # pair holds the lower value and the optimum is 0
    @pytest.mark.parametrize("n, seed", [(2, 1), (3, 1), (3, 4)])
    def test_correlation_on_one_valued_stream_is_zero(self, tmp_path, n, seed):
        stream = tmp_path / "s.txt"
        run(
            "gen", "--kind", "two_valued", "--n", str(n), "--seed", str(seed),
            "--out", str(stream),
        )
        assert len(set(StreamSource.from_file(stream).d.tolist())) == 1
        report = tmp_path / "o.json"
        assert run(
            "oracle", "--input", str(stream), "--which", "correlation",
            "--report", str(report),
        ) == 0
        assert json.loads(report.read_text())["value"] == 0

    def test_malformed_stream_is_integrity_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3\n0 1 1\n0 2 zap\n")
        assert run("check", "--input", str(bad)) == 3

    @pytest.mark.parametrize(
        "text",
        [
            "{}",
            "not json",
            '{"n": 2, "root": {"level": "abc", "children": ['
            '{"leaf": true, "node_id": 0}, {"leaf": true, "node_id": 1}]}}',
            '{"n": 2, "root": {"level": "1"}}',
            UltrametricTree.from_nested(12, (fp.SCALE, list(range(12)))).to_json(),
            '{"n": 10000000000000, "root": {"leaf": true, "node_id": 0}}',
        ],
        ids=["no-n", "not-json", "bad-level", "no-children", "12-leaves-10-points",
             "huge-n"],
    )
    def test_malformed_tree_file_exits_3(self, tmp_path, capsys, text):
        stream = tmp_path / "s.txt"
        assert run(
            "gen", "--kind", "uniform_random", "--n", "10", "--out", str(stream),
            "--report", str(tmp_path / "g.json"),
        ) == 0
        capsys.readouterr()
        tree = tmp_path / "t.json"
        tree.write_text(text)
        report = tmp_path / "c.json"
        code = run(
            "cost", "--input", str(stream), "--tree", str(tree),
            "--report", str(report),
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
        assert not report.exists()

    @pytest.mark.parametrize("command", ["fit", "cost"])
    def test_missing_file_exits_3(self, instance, tmp_path, capsys, command):
        _, stream, _ = instance
        missing = str(tmp_path / "missing.txt")
        argv = {
            "fit": ("fit", "--input", missing, *FIT_FLAGS["linf-2pass"]),
            "cost": ("cost", "--input", str(stream), "--tree", missing),
        }[command]
        capsys.readouterr()
        report = tmp_path / "r.json"
        assert run(*argv, "--report", str(report)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing.txt" in err
        assert len(err.splitlines()) == 1
        assert not report.exists()


FIT_FLAGS = {
    "linf-2pass": ("--structure", "ultrametric", "--objective", "linf", "--passes", "2"),
    "l0-exact": ("--structure", "ultrametric", "--objective", "l0", "--mode", "exact",
                 "--passes", "1"),
    "l0-sketch": ("--structure", "ultrametric", "--objective", "l0", "--mode", "sketch",
                  "--passes", "1"),
    "tree-l0": ("--structure", "tree", "--objective", "l0", "--mode", "exact",
                "--passes", "2"),
}


@pytest.fixture(params=["missing", "duplicate", "swapped"])
def broken_stream(request, instance):
    """The instance's stream with its last pair dropped, its first pair
    repeated, or both (so the entry count is right)."""
    tmp_path, stream, truth = instance
    header, *entries = stream.read_text().splitlines()
    if request.param != "duplicate":
        entries = entries[:-1]
    if request.param != "missing":
        entries.append(entries[0])
    bad = tmp_path / f"{request.param}.txt"
    bad.write_text("\n".join([header, *entries]) + "\n")
    return tmp_path, bad, truth


class TestIncompleteStream:
    @pytest.mark.parametrize("flags", sorted(FIT_FLAGS))
    def test_fit_exits_3_without_output(self, broken_stream, flags):
        tmp_path, bad, _ = broken_stream
        report = tmp_path / "r.json"
        tree_out = tmp_path / "t.json"
        code = run(
            "fit", "--input", str(bad), *FIT_FLAGS[flags],
            "--out-tree", str(tree_out), "--report", str(report),
        )
        assert code == 3
        assert not report.exists()
        assert not tree_out.exists()

    def test_cost_and_check_exit_3(self, broken_stream):
        tmp_path, bad, truth = broken_stream
        report = tmp_path / "r.json"
        assert run("cost", "--input", str(bad), "--tree", str(truth),
                   "--report", str(report)) == 3
        assert run("check", "--input", str(bad), "--report", str(report)) == 3
        assert not report.exists()

    @pytest.mark.parametrize(
        "line, reason",
        [
            (b"0 2 \xc3\xa9", "non-ASCII byte"),
            (b"0 100000000000000000000 1", "64-bit range"),
            (b"0 2 99999999999", "64-bit range"),
        ],
        ids=["non-ascii", "u-over-int64", "d-over-int64"],
    )
    def test_unreadable_value_exits_3_naming_its_line(
        self, tmp_path, capsys, line, reason
    ):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"3\n0 1 1\n" + line + b"\n1 2 1\n")
        report = tmp_path / "r.json"
        code = run(
            "fit", "--input", str(bad), *FIT_FLAGS["l0-exact"],
            "--report", str(report),
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:3: ")
        assert reason in err
        assert len(err.splitlines()) == 1
        assert not report.exists()

    @pytest.mark.parametrize("objective", ["l0", "linf"])
    def test_tree_shift_past_int64_exits_3(self, tmp_path, capsys, objective):
        # each distance parses, but twice the pivot row's largest one
        # passes the int64 range once scaled
        bad = tmp_path / "far.txt"
        bad.write_text("3\n0 1 4000000000\n0 2 4000000000\n1 2 1\n")
        report = tmp_path / "r.json"
        tree_out = tmp_path / "t.json"
        code = run(
            "fit", "--input", str(bad), "--structure", "tree",
            "--objective", objective, "--passes", "2",
            "--out-tree", str(tree_out), "--report", str(report),
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "int64" in err
        assert len(err.splitlines()) == 1
        assert not report.exists()
        assert not tree_out.exists()

    @pytest.mark.parametrize("seed", range(6))
    def test_tree_shift_within_int64_for_every_pivot_order(self, tmp_path, seed):
        # max D + 2 max(row) is 9 * 10**18 units for every pivot, which
        # fits; the seeds draw each of the pivot pairs, in ascending order
        stream = tmp_path / "near.txt"
        stream.write_text("3\n0 1 0.5\n0 2 1500000000\n1 2 1500000000\n")
        assert run(
            "fit", "--input", str(stream), "--structure", "tree",
            "--objective", "l0", "--passes", "2", "--seed", str(seed),
        ) == 0

    def test_huge_header_is_rejected_before_allocating(self, tmp_path):
        bad = tmp_path / "huge.txt"
        bad.write_text("10000000000\n0 1 1\n")
        assert run("check", "--input", str(bad)) == 3


class TestSketchBudget:
    def test_exhausted_instances_exit_4_without_output(self, tmp_path, capsys):
        stream = tmp_path / "t.txt"
        assert run(
            "gen", "--kind", "planted_tree_metric", "--n", "30",
            "--seed", "0", "--out", str(stream), "--report", str(tmp_path / "g.json"),
        ) == 0
        capsys.readouterr()
        report = tmp_path / "r.json"
        tree_out = tmp_path / "fit.json"
        code = run(
            "fit", "--input", str(stream),
            "--structure", "tree", "--objective", "l0", "--mode", "sketch",
            "--passes", "2", "--seed", "0",
            "--out-tree", str(tree_out), "--report", str(report),
        )
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "sketch instances" in err
        assert len(err.splitlines()) == 1
        assert not report.exists()
        assert not tree_out.exists()


ULTRAMETRIC_FITTERS = [
    ("fit_linf_min_decrement", "linf", 1),
    ("fit_linf_exact", "linf", 2),
    ("fit_l0", "l0", 1),
]


class TestPassBudget:
    """A fitter that reads a pass past its budget exits 4 with one error
    line and writes nothing, from `fit` and `bench` alike."""

    @pytest.fixture
    def one_pass_too_many(self, monkeypatch):
        def patch(fitter, budget):
            real = getattr(cli, fitter)

            def fit(source, *args, **kwargs):
                result = real(source, *args, **kwargs)
                source.arrays()
                return result

            monkeypatch.setattr(cli, fitter, fit)

        return patch

    @staticmethod
    def assert_budget_error(capsys, budget):
        assert capsys.readouterr().err == (
            f"error: the fit read {budget + 1} passes, over its budget of {budget}\n"
        )

    @pytest.mark.parametrize(
        "fitter, structure, objective, budget",
        [(f, "ultrametric", o, b) for f, o, b in ULTRAMETRIC_FITTERS]
        + [("fit_linf_tree", "tree", "linf", 2), ("fit_l0_tree", "tree", "l0", 2)],
    )
    def test_fit_exits_4_without_output(
        self, instance, tmp_path, capsys, one_pass_too_many,
        fitter, structure, objective, budget,
    ):
        one_pass_too_many(fitter, budget)
        _, stream, _ = instance
        capsys.readouterr()
        report = tmp_path / "r.json"
        tree_out = tmp_path / "fit.json"
        code = run(
            "fit", "--input", str(stream), "--structure", structure,
            "--objective", objective, "--passes", str(budget),
            "--out-tree", str(tree_out), "--report", str(report),
        )
        assert code == 4
        self.assert_budget_error(capsys, budget)
        assert not report.exists()
        assert not tree_out.exists()

    @pytest.mark.parametrize("fitter, objective, budget", ULTRAMETRIC_FITTERS)
    def test_bench_exits_4_without_output(
        self, tmp_path, capsys, one_pass_too_many, fitter, objective, budget
    ):
        one_pass_too_many(fitter, budget)
        out = tmp_path / "bench.csv"
        code = run(
            "bench", "--kind", "planted_ultrametric", "--n", "6",
            "--objective", objective, "--passes", str(budget), "--out", str(out),
        )
        assert code == 4
        self.assert_budget_error(capsys, budget)
        assert not out.exists()


class TestFitUsageErrors:
    """Flag values a fit cannot use exit 2 with one error line and write
    nothing."""

    @pytest.mark.parametrize(
        "flags",
        [
            ("--structure", "tree", "--objective", "linf", "--passes", "2",
             "--pivot", "99"),
            ("--structure", "tree", "--objective", "linf", "--passes", "2",
             "--pivot", "-1"),
            ("--structure", "ultrametric", "--objective", "l0", "--passes", "1",
             "--mode", "sketch", "--instances", "-2"),
            ("--structure", "ultrametric", "--objective", "linf", "--passes", "2",
             "--mode", "sketch"),
            ("--structure", "ultrametric", "--objective", "linf", "--passes", "2",
             "--instances", "3"),
            ("--structure", "tree", "--objective", "linf", "--passes", "2",
             "--mode", "sketch"),
            ("--structure", "ultrametric", "--objective", "l0", "--passes", "1",
             "--instances", "3"),
            ("--structure", "tree", "--objective", "l0", "--passes", "2",
             "--pivot", "0"),
            ("--structure", "ultrametric", "--objective", "l0", "--passes", "1",
             "--pivot", "-5"),
            ("--structure", "ultrametric", "--objective", "linf", "--passes", "2",
             "--pivot", "1"),
            ("--structure", "ultrametric", "--objective", "l0", "--passes", "1",
             "--mode", "sketch", "--seed", "-1"),
            ("--structure", "ultrametric", "--objective", "l0", "--passes", "1",
             "--seed", "-1"),
            ("--structure", "tree", "--objective", "l0", "--passes", "2",
             "--seed", "-1"),
            ("--structure", "ultrametric", "--objective", "linf", "--passes", "2",
             "--seed", str(2**63)),
            ("--structure", "tree", "--objective", "l0", "--passes", "2",
             "--seed", str(2**63)),
            ("--structure", "ultrametric", "--objective", "l0", "--passes", "1",
             "--mode", "sketch", "--seed", str(2**64)),
            ("--structure", "tree", "--objective", "l0", "--passes", "2",
             "--seed", str(2**64)),
        ],
        ids=["pivot-99", "pivot-neg", "instances-neg", "linf-sketch",
             "linf-instances", "tree-linf-sketch", "exact-instances",
             "tree-l0-pivot", "l0-pivot", "linf-pivot", "sketch-seed-neg",
             "exact-seed-neg", "tree-l0-seed-neg", "linf-seed-2^63",
             "tree-l0-seed-2^63", "sketch-seed-2^64", "tree-l0-seed-2^64"],
    )
    def test_exit_2_without_output(self, instance, tmp_path, capsys, flags):
        _, stream, _ = instance
        capsys.readouterr()
        report = tmp_path / "r.json"
        tree_out = tmp_path / "fit.json"
        code = run(
            "fit", "--input", str(stream), *flags,
            "--out-tree", str(tree_out), "--report", str(report),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
        if flags[-2:] == ("--instances", "-2"):
            # 0 is accepted and means the preset's count
            assert err == "error: --instances must be >= 0\n"
        if flags[-1] in (str(2**63), str(2**64)):
            # Philox would round the seed through a float, or overflow
            assert err == f"error: --seed must be in 0..{2**63 - 1}\n"
        assert not report.exists()
        assert not tree_out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ("--structure", "ultrametric", "--objective", "linf", "--passes", "2"),
            ("--structure", "ultrametric", "--objective", "l0", "--passes", "1",
             "--mode", "sketch"),
            ("--structure", "tree", "--objective", "l0", "--passes", "2"),
        ],
        ids=["linf", "sketch", "tree-l0"],
    )
    def test_largest_seed_fits(self, instance, tmp_path, flags):
        _, stream, _ = instance
        report = tmp_path / "r.json"
        code = run(
            "fit", "--input", str(stream), *flags, "--seed", str(2**63 - 1),
            "--report", str(report),
        )
        assert code == 0
        assert json.loads(report.read_text())["seed"] == 2**63 - 1


class TestBench:
    @pytest.mark.parametrize(
        "flags", [("--passes", "7"), ("--passes", "1", "--mode", "sketch")],
        ids=["passes-7", "sketch"],
    )
    def test_linf_flags_it_cannot_use_exit_2(self, tmp_path, capsys, flags):
        out = tmp_path / "bench.csv"
        code = run(
            "bench", "--kind", "uniform_random", "--n", "8",
            "--objective", "linf", *flags, "--out", str(out),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("passes", ["7", "2", "0"])
    def test_l0_passes_other_than_one_exit_2(self, tmp_path, capsys, passes):
        out = tmp_path / "bench.csv"
        code = run(
            "bench", "--kind", "uniform_random", "--n", "5",
            "--objective", "l0", "--passes", passes, "--out", str(out),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, code",
        [
            (("--runs", "0"), 2),
            (("--runs", "-1"), 2),
            (("--seed", "-1"), 2),
            (("--seed", str(2**63)), 2),
            (("--seed", str(2**64)), 2),
            # the last run's seed would be 2^63
            (("--seed", str(2**63 - 1), "--runs", "2"), 2),
            (("--noise-k", "-3"), 3),
        ],
        ids=["runs-0", "runs-neg", "seed-neg", "seed-2^63", "seed-2^64",
             "last-seed-2^63", "noise-neg"],
    )
    def test_bad_counts_exit_without_output(self, tmp_path, capsys, flags, code):
        out = tmp_path / "bench.csv"
        got = run(
            "bench", "--kind", "planted_ultrametric", "--n", "5", *flags,
            "--out", str(out),
        )
        assert got == code
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_csv_columns_and_rows(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run(
            "bench", "--kind", "planted_ultrametric", "--n", "6",
            "--seed", "0", "--runs", "3", "--objective", "l0",
            "--out", str(out),
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert set(rows[0]) == {
            "kind", "n", "seed", "structure", "objective", "mode", "passes",
            "cost_l0", "cost_l1", "cost_linf", "oracle_l0", "ratio_l0",
            "peak_words",
        }
        assert rows[0]["ratio_l0"] == "1.0000"
        # the oracle fills at n = 6; its own read of the stream is not the
        # fit's pass
        assert all(row["oracle_l0"] for row in rows)
        assert [row["passes"] for row in rows] == ["1", "1", "1"]


FIT_PATHS = [
    ("ultrametric", "linf", "exact", "1"),
    ("ultrametric", "linf", "exact", "2"),
    ("ultrametric", "l0", "exact", "1"),
    ("ultrametric", "l0", "sketch", "1"),
    ("tree", "linf", "exact", "2"),
    ("tree", "l0", "exact", "2"),
    ("tree", "l0", "sketch", "2"),
]


class TestDeterminism:
    def test_reports_are_byte_identical(self, instance, tmp_path):
        _, stream, _ = instance
        r1 = tmp_path / "a.json"
        r2 = tmp_path / "b.json"
        for r in (r1, r2):
            assert run(
                "fit", "--input", str(stream),
                "--structure", "ultrametric", "--objective", "l0",
                "--passes", "1", "--seed", "7", "--report", str(r),
            ) == 0
        assert r1.read_bytes() == r2.read_bytes()

    @pytest.mark.parametrize("path", FIT_PATHS, ids=["-".join(p) for p in FIT_PATHS])
    def test_line_order_does_not_matter(self, tmp_path, path):
        """A source holds its pairs in canonical order, whatever the order
        of the file's lines, so a copy with its lines shuffled and every
        other line's endpoints swapped fits to the same files. Its passes
        are permutations of canonical order; when they followed the file's
        order, the two-pass `linf` certificate pair moved with it."""
        stream = tmp_path / "d.txt"
        assert run(
            "gen", "--kind", "planted_ultrametric", "--n", "64", "--seed", "3",
            "--noise-k", "32", "--out", str(stream),
        ) == 0
        header, *body = stream.read_text().splitlines()
        rng = np.random.default_rng(2)
        body = [body[i] for i in rng.permutation(len(body))]
        for i in range(0, len(body), 2):
            u, v, d = body[i].split()
            body[i] = f"{v} {u} {d}"
        shuffled = tmp_path / "shuffled.txt"
        shuffled.write_text("\n".join([header, *body]) + "\n")
        structure, objective, mode, passes = path
        outputs = []
        for name, source in (("a", stream), ("b", shuffled)):
            files = [
                tmp_path / f"{name}{ext}" for ext in (".json", ".nwk", "-fit.json")
            ]
            assert run(
                "fit", "--input", str(source), "--structure", structure,
                "--objective", objective, "--mode", mode, "--passes", passes,
                "--seed", "1", "--out-tree", str(files[0]),
                "--out-newick", str(files[1]), "--report", str(files[2]),
            ) == 0
            outputs.append([f.read_bytes() for f in files])
        assert outputs[0] == outputs[1]


# run by a fresh interpreter: exits 0 when every command returned 0 and
# nothing imported numpy.ma, else prints what did
NO_NUMPY_MA = """
import json, sys
sys.path.insert(0, sys.argv[1])
from streamfit import cli
stream, workdir, paths = sys.argv[2], sys.argv[3], json.loads(sys.argv[4])
for i, (structure, objective, mode, passes) in enumerate(paths):
    tree = f"{workdir}/tree-{i}.json"
    for argv in (
        ["fit", "--input", stream, "--structure", structure, "--objective",
         objective, "--mode", mode, "--passes", passes, "--seed", "1",
         "--out-tree", tree, "--report", f"{workdir}/fit-{i}.json"],
        ["cost", "--input", stream, "--tree", tree, "--report", f"{workdir}/cost-{i}.json"],
    ):
        code = cli.main(argv)
        if code or "numpy.ma" in sys.modules:
            print(code, "numpy.ma" in sys.modules, argv, file=sys.stderr)
            sys.exit(1)
"""


def test_fit_and_cost_never_import_numpy_ma(tmp_path):
    """numpy's values-only `np.unique` imports `numpy.ma` on its first call,
    about 14 ms of a CLI process. No fit path and no `cost` calls it: in a
    fresh interpreter, as the console script starts one, all seven fit
    paths and a `cost` of each written tree leave `numpy.ma` unimported."""
    stream = tmp_path / "d.txt"
    assert run(
        "gen", "--kind", "planted_ultrametric", "--n", "40", "--seed", "1",
        "--noise-k", "10", "--out", str(stream),
    ) == 0
    src = Path(streamfit.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_MA, str(src), str(stream), str(tmp_path),
         json.dumps(FIT_PATHS)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    for i in range(len(FIT_PATHS)):
        fit = json.loads((tmp_path / f"fit-{i}.json").read_text())
        cost = json.loads((tmp_path / f"cost-{i}.json").read_text())
        assert fit["cost"]["l0"] == cost["cost"]["l0"]
