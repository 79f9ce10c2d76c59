"""Byte identity of every file the CLI writes, pinned by sha256.

The digests in `golden_digests.json` were recorded from the program as it
stood before the tree builder moved to flat arrays; the `treel0sketch`
digests were recorded before the sketch clustering moved onto the array
kernel the exact mode uses; the `bench` CSVs and the n = 24 tree-metric
files were recorded before `fit` and `bench` shared one dispatcher and the
stream counted its own passes. A change that alters
output bytes on purpose re-records them with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

import hashlib
import json
import pathlib
import sys
import tempfile

from streamfit.cli import main

DIGESTS = pathlib.Path(__file__).with_name("golden_digests.json")

# (kind, n, noise_k, generator seed); n = 1 and n = 2 are the degenerate shapes
INSTANCES = (
    ("uniform_random", 1, 0, 3),
    ("planted_tree_metric", 2, 0, 3),
    ("planted_tree_metric", 24, 12, 3),
    ("planted_ultrametric", 40, 60, 3),
)

# (name, structure, objective, passes, mode)
FIT_PATHS = (
    ("linf1", "ultrametric", "linf", 1, "exact"),
    ("linf2", "ultrametric", "linf", 2, "exact"),
    ("l0exact", "ultrametric", "l0", 1, "exact"),
    ("l0sketch", "ultrametric", "l0", 1, "sketch"),
    ("treelinf", "tree", "linf", 2, "exact"),
    ("treel0", "tree", "l0", 2, "exact"),
    ("treel0sketch", "tree", "l0", 2, "sketch"),
)

# (name, extra bench flags); linf without --passes takes its default of 2
BENCH_PATHS = (
    ("linf1", ("--objective", "linf", "--passes", 1)),
    ("linf2", ("--objective", "linf")),
    ("l0exact", ("--objective", "l0", "--mode", "exact")),
    ("l0sketch", ("--objective", "l0", "--mode", "sketch")),
)

# bench sizes: the oracle columns fill at n <= 7 and stay empty above
BENCH_SIZES = (6, 40)


def _run(*argv):
    code = main([str(a) for a in argv])
    assert code == 0, argv


def collect(workdir: pathlib.Path) -> dict:
    """Run gen, every fit path and cost on each instance, and every bench
    path on planted ultrametrics; sha256 per file."""
    files = []
    for kind, n, noise, seed in INSTANCES:
        tag = f"{kind}-{n}"
        stream = workdir / f"{tag}.txt"
        truth = workdir / f"{tag}.truth.json"
        _run("gen", "--kind", kind, "--n", n, "--noise-k", noise, "--seed", seed,
             "--out", stream, "--truth-out", truth, "--report", workdir / "gen.json")
        # uniform_random plants no truth, so writes no truth file
        files += [p for p in (stream, truth) if p.exists()]
        for name, structure, objective, passes, mode in FIT_PATHS:
            tree, newick, report, cost = (
                workdir / f"{tag}.{name}.{ext}"
                for ext in ("tree.json", "nwk", "report.json", "cost.json")
            )
            _run("fit", "--input", stream, "--structure", structure,
                 "--objective", objective, "--passes", passes, "--mode", mode,
                 "--seed", 1, "--out-tree", tree, "--out-newick", newick,
                 "--report", report)
            _run("cost", "--input", stream, "--tree", tree, "--report", cost)
            files += [tree, newick, report, cost]
    for n in BENCH_SIZES:
        for name, flags in BENCH_PATHS:
            csv = workdir / f"bench-{n}.{name}.csv"
            _run("bench", "--kind", "planted_ultrametric", "--n", n, "--runs", 2,
                 "--noise-k", 2, *flags, "--out", csv)
            files.append(csv)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def test_outputs_match_recorded_digests(tmp_path):
    assert collect(tmp_path) == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = collect(pathlib.Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS}", file=sys.stderr)
