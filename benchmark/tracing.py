"""Span tracing of a `streamfit fit` job from outside the program.

`Tracer.install()` wraps the public functions and methods that a fit job
reaches, layer by layer, without editing the program. A module-level
function is replaced in every `streamfit` module whose namespace holds it,
because each caller looks the name up in its own module globals (for
example `fit_l0` is looked up in `streamfit.cli` and `streamfit.treefit`).
Methods are replaced once, on their class. `uninstall()` restores every
original object.

Spans are kept in memory as tuples and written out by `dump()` when the
run ends. A span's self time is its duration minus the durations of its
direct children, so the self times of one job sum to the job's root span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

ROOT = "cli"

# (module, attribute, span name); an attribute with a dot is a method
# "Class.method", replaced on the class. Every span name is a layer metric.
TARGETS = (
    ("streamfit.cli", "main", ROOT),
    ("streamfit.streams", "StreamSource.from_file", "streams.from_file"),
    ("streamfit.streams", "StreamSource.dense", "streams.dense"),
    ("streamfit.streams", "StreamSource.arrays", "streams.pass"),
    ("streamfit.streams", "StreamSource.check_complete", "streams.pass"),
    ("streamfit.linf", "fit_linf_min_decrement", "linf.forest"),
    ("streamfit.linf", "fit_linf_exact", "linf.slack_pass"),
    ("streamfit.trees", "single_linkage_tree", "trees.single_linkage"),
    ("streamfit.trees", "UltrametricTree.__init__", "trees.build"),
    ("streamfit.trees", "UltrametricTree.induced_matrix", "trees.induced_matrix"),
    ("streamfit.trees", "TreeMetricRep.induced_matrix", "trees.induced_matrix"),
    ("streamfit.trees", "UltrametricTree.to_json", "trees.to_json"),
    ("streamfit.trees", "TreeMetricRep.to_json", "trees.to_json"),
    ("streamfit.sketches", "SketchPools.__init__", "sketches.ingest"),
    ("streamfit.sketches", "SketchPools.bulk_ingest", "sketches.ingest"),
    ("streamfit.sketches", "SketchPools.finalize", "sketches.ingest"),
    ("streamfit.sketches", "SketchPools.build_compressed_set", "sketches.ingest"),
    ("streamfit.sketches", "SketchPools.report_sketch", "sketches.query"),
    ("streamfit.sketches", "SketchPools.estimate_degree", "sketches.query"),
    ("streamfit.agreement", "s_structural_clustering", "agreement.clustering"),
    ("streamfit.l0fit", "fit_l0", "l0fit.recursion"),
    ("streamfit.treefit", "collect_pivot_rows", "treefit.pivot_rows"),
    ("streamfit.treefit", "centroid_transformed_source", "treefit.transform"),
    ("streamfit.treefit", "fit_l0_tree", "treefit.consensus"),
    ("streamfit.treefit", "select_tree_by_clique", "treefit.consensus"),
    ("streamfit.evaluate", "cost", "evaluate.cost"),
)

# per-layer metric -> span name whose self time it reports
SELF_TIMES = {
    "streams.from_file_s": "streams.from_file",
    "streams.dense_s": "streams.dense",
    "streams.pass_s": "streams.pass",
    "linf.forest_s": "linf.forest",
    "linf.slack_pass_s": "linf.slack_pass",
    "trees.induced_matrix_s": "trees.induced_matrix",
    "trees.single_linkage_s": "trees.single_linkage",
    "trees.build_s": "trees.build",
    "trees.to_json_s": "trees.to_json",
    "sketches.ingest_s": "sketches.ingest",
    "sketches.query_s": "sketches.query",
    "agreement.clustering_s": "agreement.clustering",
    "l0fit.recursion_self_s": "l0fit.recursion",
    "treefit.pivot_rows_s": "treefit.pivot_rows",
    "treefit.transform_s": "treefit.transform",
    "treefit.consensus_s": "treefit.consensus",
    "evaluate.cost_self_s": "evaluate.cost",
    "cli.self_s": ROOT,
}

# per-layer count -> span name whose outermost calls it counts
CALL_COUNTS = {
    "trees.induced_matrix_calls": "trees.induced_matrix",
    "sketches.query_calls": "sketches.query",
    "agreement.clustering_calls": "agreement.clustering",
}

# counts recorded at span boundaries by `_note`
NOTED_COUNTS = (
    "streams.passes",
    "sketches.objects",
    "sketches.peak_words",
    "agreement.clustering_members",
    "l0fit.recursion_calls",
)


class Tracer:
    """In-memory spans and counters for a sequence of traced jobs."""

    def __init__(self):
        self.spans = []  # (span_id, parent_id, job, name, start, end)
        self.counts = defaultdict(Counter)  # job -> counter
        self.job = -1
        self._stack = []
        self._input_source = None
        self._saved = []

    # -- patching -------------------------------------------------------------

    def install(self):
        """Wrap every target; returns the list of (owner, attribute) patched."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        patched = []
        for module_name, attr, span in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, span))
                else:
                    wrapped = self._wrap(raw, span)
                self._saved.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                patched.append((cls.__qualname__, meth))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, span)
            for owner in _streamfit_modules():
                for name, value in list(vars(owner).items()):
                    if value is original:
                        self._saved.append((owner, name, original))
                        setattr(owner, name, wrapped)
                        patched.append((owner.__name__, name))
        return patched

    def uninstall(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def start_job(self):
        self.job += 1
        self._input_source = None

    def _wrap(self, fn, span):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = len(tracer.spans)
            parent = stack[-1] if stack else -1
            tracer.spans.append(None)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[span_id] = (span_id, parent, tracer.job, span, start, end)
            tracer._note(fn.__name__, args, result)
            return result

        return traced

    def _note(self, fn_name, args, result):
        """Counters measured at the boundary of the call that just ended."""
        counts = self.counts[self.job]
        if fn_name == "from_file":
            self._input_source = result
        elif fn_name in ("arrays", "dense"):
            if args[0] is self._input_source:
                counts["streams.passes"] += 1
        elif fn_name == "bulk_ingest":
            counts["sketches.objects"] += len(args[0].sketches)
        elif fn_name == "s_structural_clustering":
            counts["agreement.clustering_members"] += len(result.ground_set)
        elif fn_name == "fit_l0":
            counts["l0fit.recursion_calls"] += result.report.recursion_calls
            counts["sketches.peak_words"] = max(
                counts["sketches.peak_words"], result.report.peak_words
            )

    # -- reading --------------------------------------------------------------

    def job_layers(self, job):
        """(root duration, {metric: value}) for one traced job."""
        spans = [s for s in self.spans if s[2] == job]
        if not spans:
            raise ValueError(f"no spans recorded for job {job}")
        by_id = {s[0]: s for s in spans}
        child_time = defaultdict(float)
        for span_id, parent, _, _, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time = defaultdict(float)
        outermost = Counter()
        roots = []
        for span_id, parent, _, name, start, end in spans:
            self_time[name] += (end - start) - child_time[span_id]
            if parent < 0:
                roots.append(end - start)
            elif by_id[parent][3] != name:
                outermost[name] += 1
            if parent < 0 and name != ROOT:
                raise ValueError(f"span {name} ran outside a job's root span")
        if len(roots) != 1:
            raise ValueError(f"job {job} has {len(roots)} root spans")
        out = {metric: self_time.get(span, 0.0) for metric, span in SELF_TIMES.items()}
        out.update({metric: outermost[span] for metric, span in CALL_COUNTS.items()})
        out.update({metric: self.counts[job][metric] for metric in NOTED_COUNTS})
        return roots[0], out

    def dump(self, path):
        """Write every span as one JSON line."""
        keys = ("span", "parent", "job", "name", "start", "end")
        with open(path, "w", encoding="ascii") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


def _streamfit_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "streamfit" or name.startswith("streamfit."))
    ]
