"""Benchmark of `streamfit fit` batch jobs, one workload per invocation.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload seed generates several instances, which set-up writes as
stream files. The run then times rounds of in-process
`streamfit.cli.main(["fit", ...])` jobs, one per instance, each going from
the input file to a JSON report and a tree file, and checks every job's
output. Each job is followed by a fixed reference computation, and the
bounded time metric `job_ref` is a job's seconds over the reference's
seconds around it, which cancels most of the drift in the speed of a
shared machine; the raw seconds are printed too. With `--trace 1` the run
uses the first instance only, alternates untraced jobs with jobs traced by
`tracing.Tracer`, and reports the per-layer metrics. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the lines before it print every metric by name and
unit, with the machine context.

The program is imported from `src/` next to this directory and is never
edited. Inputs, outputs, spans and the record of deterministic counts go to
`.bench_work/` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# set-up repeats until this many seconds are spent, references included
SETUP_SECONDS = 3.0
# a job is compared with a reference of this many parts, one set-up with one
# part, so that each reference lasts about as long as what it is compared with
JOB_REFERENCE_PARTS = 12
# `setup_s` is a set-up's seconds over one reference part's seconds, times
# the seconds one part takes on a quiet 2-core x86-64 VM (Python 3.11,
# numpy 2.4), so that it reads as seconds there whatever the machine's load
REFERENCE_PART_S = 0.033
MIN_ROUNDS = 1
MIN_TRACED_JOBS = 3
# no job starts after this many seconds of a run, so that a run ends well
# inside three minutes even when the program gets much slower
JOB_START_LIMIT = 120.0


@dataclass(frozen=True)
class Workload:
    kind: str
    n: int
    noise_k: int
    fit_args: tuple
    why: str
    # instances generated from one workload seed; each timed round runs one
    # job on every instance, which averages out how much work one seed needs
    instances: int = 4
    # distance levels 1..levels of a planted ultrametric; 0 keeps the
    # generator's default of four, whose flat bottom level makes the seconds
    # to generate an instance vary by up to 2.5x between seeds
    levels: int = 0

    @property
    def pairs(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def objective(self) -> str:
        return self.fit_args[self.fit_args.index("--objective") + 1]


WORKLOADS = {
    "linf-uniform-192": Workload(
        "uniform_random", 192, 0,
        ("--structure", "ultrametric", "--objective", "linf", "--passes", "2"),
        "spanning-forest upkeep and two induced matrices; never reaches "
        "agreement, sketches or l0fit, so their optimisations predict no change",
    ),
    "l0-exact-512": Workload(
        "planted_ultrametric", 512, 256,
        ("--structure", "ultrametric", "--objective", "l0", "--mode", "exact",
         "--passes", "1"),
        "parsing, then about twenty exact clusterings up to n wide, dense and "
        "one induced matrix for the cost pass; bypasses the forest and the sketches",
        # the fitted tree's shape moves this workload's work most between seeds
        instances=8,
        levels=8,
    ),
    "l0-sketch-80": Workload(
        "planted_ultrametric", 80, 40,
        ("--structure", "ultrametric", "--objective", "l0", "--mode", "sketch",
         "--passes", "1"),
        "sketch ingest and sketch queries dominate and modelled words diverge "
        "from real bytes; bypasses the dense matrix and the forest",
        levels=8,
    ),
    "tree-l0-224": Workload(
        "planted_tree_metric", 224, 224,
        ("--structure", "tree", "--objective", "l0", "--mode", "exact",
         "--passes", "2"),
        "the only treefit path: pivot rows, centroid transform, consensus and "
        "about a hundred small clusterings, the opposite shape from l0-exact",
    ),
}

END_TO_END_UNITS = {
    "job_ref": "ref",
    "setup_s": "s",
    "peak_alloc_mib": "MiB",
}

PER_LAYER_UNITS = {
    "streams.from_file_s": "s",
    "streams.dense_s": "s",
    "streams.pass_s": "s",
    "streams.passes": "count",
    "linf.forest_s": "s",
    "linf.slack_pass_s": "s",
    "trees.induced_matrix_s": "s",
    "trees.induced_matrix_calls": "count",
    "trees.single_linkage_s": "s",
    "trees.build_s": "s",
    "trees.to_json_s": "s",
    "sketches.ingest_s": "s",
    "sketches.query_s": "s",
    "sketches.query_calls": "count",
    "sketches.objects": "count",
    "sketches.peak_words": "words",
    "agreement.clustering_s": "s",
    "agreement.clustering_calls": "count",
    "agreement.clustering_members": "count",
    "l0fit.recursion_self_s": "s",
    "l0fit.recursion_calls": "count",
    "treefit.pivot_rows_s": "s",
    "treefit.transform_s": "s",
    "treefit.consensus_s": "s",
    "evaluate.cost_self_s": "s",
    "cli.self_s": "s",
    "cost_l0": "count",
    "job_s": "s",
    "pairs_per_s": "1/s",
    "error_rate": "ratio",
    "trace.job_s": "s",
    "trace.overhead_s": "s",
}

# counts that must repeat exactly between jobs and between runs of one code
DETERMINISTIC = (
    "cost_l0",
    "streams.passes",
    "trees.induced_matrix_calls",
    "agreement.clustering_calls",
    "l0fit.recursion_calls",
    "sketches.objects",
    "sketches.peak_words",
)


class ProgramMissing(RuntimeError):
    pass


def cap_blas_threads() -> str:
    """Cap BLAS threads at the CPU count unless the caller already did."""
    cap = str(len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:
        os.environ.setdefault(var, cap)
    return os.environ[BLAS_ENV[0]]


def load_program():
    """Import streamfit from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "streamfit" / "cli.py").is_file():
        raise ProgramMissing(f"no streamfit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import streamfit.cli

    if Path(streamfit.__file__).resolve().parent != SRC / "streamfit":
        raise ProgramMissing(f"imported streamfit from {streamfit.__file__}")
    return streamfit


def machine_context(blas_cap: str) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_cap,
    }


# -- set-up -------------------------------------------------------------------


@dataclass
class Instance:
    seed: int  # generator seed, also passed to `fit --seed`
    input_path: Path
    matrix: object  # dense int64 input distances, from the generator
    linf_bound: int | None


def instance_seeds(workload: Workload, seed: int) -> list:
    """Disjoint generator seeds for the instances of one workload seed."""
    return [seed * workload.instances + i for i in range(workload.instances)]


def dense_from(source):
    import numpy as np

    matrix = np.zeros((source.n, source.n), dtype=np.int64)
    matrix[source.u, source.v] = source.d
    matrix[source.v, source.u] = source.d
    return matrix


def set_up(workload: Workload, seeds: list, workdir: Path):
    """Generate each instance and write its stream file.

    Returns the instances and, for every set-up of one instance, its seconds
    over the mean seconds of the one-part reference computations timed just
    before and just after it. Instances are set up again in turn until each
    has been set up once and SETUP_SECONDS have passed, so that short
    set-ups still give a steady median; every repeat must write the same
    bytes. On the linf workload set-up also computes the independent minimax
    lower bound for the output check.
    """
    from streamfit.fixedpoint import from_int
    from streamfit.oracles import minimax_cert
    from streamfit.streams import GeneratorSpec, generate

    alphabet = [from_int(v) for v in range(1, workload.levels + 1)] or None

    instances, ratios, digests = {}, [], {}
    started = time.perf_counter()
    before = reference_seconds(1)
    while len(ratios) < len(seeds) or time.perf_counter() - started < SETUP_SECONDS:
        seed = seeds[len(ratios) % len(seeds)]
        start = time.perf_counter()
        spec = GeneratorSpec(
            kind=workload.kind, n=workload.n, seed=seed, noise_k=workload.noise_k,
            value_alphabet=alphabet,
        )
        source, _ = generate(spec)
        path = workdir / f"input-{seed}.txt"
        source.write_file(path)
        matrix = dense_from(source)
        bound = None
        if workload.objective == "linf":
            _, bound = minimax_cert(matrix, max_n=workload.n)
        seconds = time.perf_counter() - start
        after = reference_seconds(1)
        ratios.append(2 * seconds / (before + after))
        before = after
        digest = hashlib.sha256(path.read_bytes()).digest()
        if digests.setdefault(seed, digest) != digest:
            raise RuntimeError(f"set-up wrote different inputs for seed {seed}")
        instances[seed] = Instance(seed, path, matrix, bound)
    return [instances[seed] for seed in seeds], ratios


# -- output checks ------------------------------------------------------------


def to_units(text: str) -> int:
    """Decimal distance literal to fixed-point units, exactly."""
    from streamfit.fixedpoint import SCALE

    value = Fraction(text) * SCALE
    if value.denominator != 1:
        raise ValueError(f"{text!r} is not a whole number of units")
    return int(value)


def ultrametric_matrix(root: dict, n: int):
    """Matrix of LCA levels of a tree in `to_json` form, built iteratively.

    Leaves are laid out in depth-first order so every internal node covers
    one contiguous block; blocks are filled parents first, children
    overwrite their own blocks, and one permutation maps back to leaf ids.
    """
    import numpy as np

    order, blocks = [], []
    stack = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, int):  # end of the block opened at index `item`
            lo, _, level = blocks[item]
            blocks[item] = (lo, len(order), level)
        elif item.get("leaf"):
            order.append(int(item["node_id"]))
        else:
            blocks.append((len(order), None, to_units(item["level"])))
            stack.append(len(blocks) - 1)
            stack.extend(reversed(item["children"]))
    if sorted(order) != list(range(n)):
        raise ValueError("tree leaves are not exactly 0..n-1")
    laid_out = np.zeros((n, n), dtype=np.int64)
    for lo, hi, level in blocks:
        laid_out[lo:hi, lo:hi] = level
    np.fill_diagonal(laid_out, 0)
    out = np.empty_like(laid_out)
    index = np.asarray(order)
    out[np.ix_(index, index)] = laid_out
    return out


def recount_l0(tree_text: str, matrix) -> int:
    """Disagreeing pairs between a written tree and the input, recounted
    from the tree JSON without the program's evaluation code."""
    import numpy as np

    doc = json.loads(tree_text)
    n = matrix.shape[0]
    if "pivot" in doc:
        fitted = ultrametric_matrix(doc["base"]["root"], n)
        row = np.asarray([to_units(v) for v in doc["pivot_row"]], dtype=np.int64)
        centroid = 2 * int(row.max()) - row[:, None] - row[None, :]
        np.fill_diagonal(centroid, 0)
        fitted = fitted - centroid
    else:
        fitted = ultrametric_matrix(doc["root"], n)
    return int(np.count_nonzero(np.triu(fitted != matrix, k=1)))


class OutputCheck:
    """Verdict on each job's (report, tree) bytes.

    The first job's outputs are checked in full and become the run's
    reference; every later job must reproduce them byte for byte and
    inherits their verdict.
    """

    def __init__(self, workload: Workload, instance: Instance):
        self.workload = workload
        self.instance = instance
        self.reference = None
        self.reference_error = None

    def verdict(self, report: bytes, tree: bytes) -> str | None:
        if self.reference is None:
            self.reference = (report, tree)
            self.reference_error = self.full_check(report, tree)
        elif (report, tree) != self.reference:
            return "outputs differ from the first job of the run"
        return self.reference_error

    def full_check(self, report: bytes, tree: bytes) -> str | None:
        try:
            doc = json.loads(report)
            if doc.get("command") != "fit" or doc.get("n") != self.workload.n:
                return "report is not a fit report for this instance"
            recount = recount_l0(tree.decode("ascii"), self.instance.matrix)
            if doc["cost"]["l0"] != recount:
                return f"report cost.l0 {doc['cost']['l0']} != recount {recount}"
            bound = self.instance.linf_bound
            if bound is not None:
                for key in ("optimal_cost", "linf"):
                    text = doc[key] if key == "optimal_cost" else doc["cost"][key]
                    if to_units(text) != bound:
                        return f"{key} {text} != minimax bound ({bound} units)"
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"
        return None


# -- jobs ---------------------------------------------------------------------


@dataclass
class JobResult:
    seconds: float
    error: str | None
    report: bytes


class Runner:
    """Runs fit jobs on one instance and keeps the attempt and failure tally."""

    def __init__(self, program, workload: Workload, instance: Instance, workdir):
        self.program = program
        self.report_path = workdir / f"report-{instance.seed}.json"
        self.tree_path = workdir / f"tree-{instance.seed}.json"
        self.argv = [
            "fit", "--input", str(instance.input_path), "--seed", str(instance.seed),
            *workload.fit_args,
            "--out-tree", str(self.tree_path), "--report", str(self.report_path),
        ]
        self.seed = instance.seed
        self.check = OutputCheck(workload, instance)
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def job(self) -> JobResult:
        for path in (self.report_path, self.tree_path):
            path.unlink(missing_ok=True)
        gc.collect()
        self.attempted += 1
        error = None
        start = time.perf_counter()
        try:
            code = self.program.cli.main(self.argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception as exc:  # a crashing job is a failed job, not a crash
            code, error = None, f"raised {exc!r}"
        seconds = time.perf_counter() - start
        report = b""
        if error is None and code != 0:
            error = f"exit code {code}"
        if error is None:
            try:
                report = self.report_path.read_bytes()
                error = self.check.verdict(report, self.tree_path.read_bytes())
            except OSError as exc:
                error = f"missing output: {exc}"
        if error is not None:
            self.failed += 1
            self.errors.append(error)
        result = JobResult(seconds, error, report)
        if self.first is None:
            self.first = result
        return result


def keep_going(run_start, started, seconds, done, minimum):
    if time.perf_counter() - run_start > JOB_START_LIMIT:
        return False
    return done < minimum or time.perf_counter() - started < seconds


def reported_cost(result: JobResult) -> int:
    doc = json.loads(result.report) if result.report else {}
    return doc.get("cost", {}).get("l0", -1)


def reference_seconds(parts: int) -> float:
    """Wall seconds of a fixed computation that never touches the program.

    Each of its equal parts mixes interpreter work (dict updates, parsing
    integers from text) with numpy fancy indexing and an int64 matrix
    product, the kinds of work a fit job does, so that a change in the
    machine's speed moves it as it moves a job.
    """
    import numpy as np

    start = time.perf_counter()
    matrix = np.arange(512 * 512, dtype=np.int64).reshape(512, 512)
    order = np.arange(512) * 7 % 512
    for _ in range(parts):
        counts = {}
        for i in range(16_000):
            counts[i % 977] = counts.get(i % 977, 0) + i % 13
        total = sum(int(word) for word in " ".join(map(str, range(8_000))).split())
        block = matrix[np.ix_(order, order)]
        matrix = matrix + (block @ (block[:64].T % 7)).sum(axis=1)[:, None] % 1000
        if total != 31_996_000 or len(counts) != 977:
            raise RuntimeError("reference computation went wrong")
    return time.perf_counter() - start


def measure_end_to_end(runners, workload, setup_ratios, seconds, run_start):
    """Peak-allocation job on the first instance, which also warms up, then
    rounds of one timed job per instance, each job followed by the reference
    computation. `job_ref` divides a job's seconds by the mean of the
    reference computations timed just before and just after it."""
    tracemalloc.start()
    try:
        peak_job = runners[0].job()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    times = [[] for _ in runners]
    ratios = [[] for _ in runners]
    before = reference_seconds(JOB_REFERENCE_PARTS)
    started, rounds = time.perf_counter(), 0
    while keep_going(run_start, started, seconds, rounds, MIN_ROUNDS):
        for runner, job_times, job_ratios in zip(runners, times, ratios):
            job = runner.job().seconds
            after = reference_seconds(JOB_REFERENCE_PARTS)
            job_times.append(job)
            job_ratios.append(2 * job / (before + after))
            before = after
        rounds += 1
    costs = [reported_cost(r.first) for r in runners]
    doc = json.loads(peak_job.report) if peak_job.report else {}
    metrics = {
        "job_ref": statistics.fmean(statistics.median(r) for r in ratios),
        "setup_s": statistics.median(setup_ratios) * REFERENCE_PART_S,
        "peak_alloc_mib": peak / 2**20,
    }
    extra = {
        "job_s": (statistics.fmean(statistics.median(t) for t in times), "s"),
        "pairs_per_s": (workload.pairs * rounds * len(runners) / sum(map(sum, times)), "1/s"),
        "cost_l0": (costs[0], "count"),
        "peak_words": (doc.get("peak_words", 0), "words"),
    }
    notes = [
        f"{rounds} rounds of {len(runners)} instances; job_s and job_ref are "
        "means over instances of per-instance medians",
        "job seconds: " + " | ".join(" ".join(f"{x:.3f}" for x in t) for t in times),
        "job/reference: " + " | ".join(" ".join(f"{x:.3f}" for x in r) for r in ratios),
        "cost_l0 per instance: " + " ".join(map(str, costs)),
        f"setup_s is the median of {len(setup_ratios)} instance set-ups",
    ]
    counts = {f"cost_l0[{r.seed}]": c for r, c in zip(runners, costs)}
    return metrics, extra, counts, notes


def measure_layers(runner, workload, seconds, run_start, spans_path):
    """Untraced and traced jobs in turn on one instance; medians of per-job
    layer values, and counts that must agree between traced jobs."""
    from tracing import SELF_TIMES, Tracer

    runner.job()  # warm-up
    tracer = Tracer()
    plain, traced, layers, problems = [], [], [], []
    started = time.perf_counter()
    while keep_going(run_start, started, seconds, len(traced), MIN_TRACED_JOBS):
        plain.append(runner.job().seconds)
        tracer.install()
        try:
            tracer.start_job()
            result = runner.job()
        finally:
            tracer.uninstall()
        root, values = tracer.job_layers(tracer.job)
        self_sum = sum(values[m] for m in SELF_TIMES)
        if abs(self_sum - root) > 1e-6:
            problems.append(f"self times sum to {self_sum} s, job took {root} s")
        values["cost_l0"] = reported_cost(result)
        traced.append(result.seconds)
        layers.append(values)
    tracer.dump(spans_path)
    metrics = {}
    for name in layers[0]:
        column = [values[name] for values in layers]
        if PER_LAYER_UNITS[name] == "s":
            metrics[name] = statistics.median(column)
        elif len(set(column)) == 1:
            metrics[name] = column[0]
        else:
            problems.append(f"{name} differs between traced jobs: {column}")
            metrics[name] = column[0]
    metrics["job_s"] = statistics.median(plain)
    metrics["pairs_per_s"] = workload.pairs * len(plain) / sum(plain)
    metrics["error_rate"] = runner.failed / runner.attempted
    metrics["trace.job_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    counts = {f"{name}[{runner.seed}]": metrics[name] for name in DETERMINISTIC}
    notes = [f"{len(traced)} traced and {len(plain)} untraced jobs on instance {runner.seed}"]
    return metrics, counts, problems, notes


# -- repeatability of counts across runs --------------------------------------


def code_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("streamfit/*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def repeat_mismatches(workload: str, seed: int, counts: dict) -> list:
    """Compare counts with earlier runs of the same code and seed, and record
    them for later runs. Returns a description of every count that moved."""
    store = WORK / "counts" / f"{workload}-{seed}.json"
    code = code_digest()
    known = {}
    if store.is_file():
        doc = json.loads(store.read_text())
        if doc.get("code") == code:
            known = doc["counts"]
    moved = [
        f"{name} was {known[name]} in an earlier run, now {value}"
        for name, value in counts.items()
        if name in known and known[name] != value
    ]
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps({"code": code, "counts": {**known, **counts}}))
    return moved


# -- entry point --------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    run_start = time.perf_counter()
    blas_cap = cap_blas_threads()
    try:
        program = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seeds = instance_seeds(workload, args.seed)[: 1 if args.trace else None]
    workdir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        instances, setup_ratios = set_up(workload, seeds, workdir)
        runners = [Runner(program, workload, inst, workdir) for inst in instances]
        if args.trace:
            spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics, counts, problems, notes = measure_layers(
                runners[0], workload, args.seconds, run_start, spans_path
            )
            units, extra = PER_LAYER_UNITS, {}
        else:
            metrics, extra, counts, notes = measure_end_to_end(
                runners, workload, setup_ratios, args.seconds, run_start
            )
            units, problems = END_TO_END_UNITS, []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems += repeat_mismatches(args.workload, args.seed, counts)
    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    if not args.trace:
        extra["error_rate"] = (failed / attempted, "ratio")

    print("context " + json.dumps(machine_context(blas_cap), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"{name} {value} {unit}")
    for line in [e for r in runners for e in r.errors] + problems:
        print(f"FAILED: {line}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
