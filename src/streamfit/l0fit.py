"""Divisive l0 ultrametric fitting.

One top-down recursion over (vertex set, working threshold) pairs: cluster S
against the predecessor threshold, recurse into every cluster that lost at
least one percent of S, and peel low-degree rims off a dominant cluster
while stepping the threshold down through the stored weight set. A call's
clustering and its peel loop's degree probes go through one view: exact
mode answers from the dense matrix, sketch mode from the single-pass sketch
pools, spending one fresh sketch instance per recursion level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .agreement import (
    AgreementParams,
    ExactView,
    SketchView,
    s_structural_clustering,
)
from .sketches import CompressedSet, SketchConfig, SketchPools
from .streams import StreamSource
from .trees import UltrametricTree


# the participation bound is this factor times ceil(log2 n)
PARTICIPATION_FACTOR = 8


class SketchBudgetError(RuntimeError):
    """The recursion needed more fresh sketch instances than were built."""


@dataclass(frozen=True)
class L0FitReport:
    recursion_calls: int
    max_participation: int
    participation_bound: int
    instances_consumed: int
    peak_words: int


@dataclass(frozen=True)
class L0FitResult:
    tree: UltrametricTree
    report: L0FitReport


def fit_l0(
    source: StreamSource,
    params: AgreementParams = None,
    config: SketchConfig = None,
) -> L0FitResult:
    """Fit an ultrametric tree minimizing disagreement count (approximately).

    `config` selects the predicate backend. Without one, exact mode
    materializes the matrix and is the deterministic reference path; with a
    `SketchConfig`, sketch mode consumes the stream once up front into
    pools of that configuration.
    """
    if params is None:
        params = AgreementParams()
    n = source.n
    if n < 1:
        raise ValueError("n must be >= 1")

    if config is None:
        matrix = source.dense()
        # the distances of pass 0, which `dense` has just read
        weights = CompressedSet(source.d)
        w_max = int(weights.weights[-1]) if len(weights) else 0
        exact_view = ExactView(matrix)
        peak_words = n * n

        def make_view(depth):
            return exact_view

    else:
        pools = SketchPools(config, n)
        pools.bulk_ingest(*source.arrays(0))
        peak_words = pools.peak_words
        weights = pools.build_compressed_set()
        w_max = pools.w_max_seen

        def make_view(depth):
            if depth >= config.instance_count:
                raise SketchBudgetError(
                    f"recursion depth {depth} exhausted the "
                    f"{config.instance_count} sketch instances"
                )
            return SketchView(pools, depth)

    participation = np.zeros(n, dtype=np.int64)
    calls = 0
    # one past the deepest call that clustered: the sketch instances read
    instances = 0
    # tree arrays: leaves 0..n-1, then one internal node per call on more
    # than one vertex
    parent = [-1] * n
    level = [0] * n
    # work-list of calls (S, w, depth, parent node id). A call's degree
    # probes run before its children's calls, and the calls may run in any
    # order: each reads only the matrix or the finished sketch pools.
    stack = [(np.arange(n, dtype=np.int64), w_max, 0, -1)] if n > 1 else []
    while stack:
        s_arr, w, depth, up = stack.pop()
        calls += 1
        participation[s_arr] += 1
        if len(s_arr) == 1:
            parent[int(s_arr[0])] = up
            continue
        node = len(parent)
        parent.append(up)
        level.append(int(w))
        w_check = weights.pred(w)
        view = make_view(depth)
        instances = max(instances, depth + 1)
        clustering = s_structural_clustering(s_arr, w_check, params, view)
        size_s = len(s_arr)
        leaves = []
        big = None
        for cluster in clustering.clusters:
            if len(cluster) == 1:
                leaves.append(int(cluster[0]))
            elif 100 * len(cluster) <= 99 * size_s:
                stack.append((cluster, w_check, depth + 1, node))
            else:
                big = cluster
        if leaves:
            # each singleton is the leaf its own call would make, counted as
            # that call would count it
            calls += len(leaves)
            participation[leaves] += 1
            for v in leaves:
                parent[v] = node
        if big is not None:
            cur = big
            w_lo = w_check
            w_probe = weights.pred(w_lo)
            while 100 * len(cur) > 99 * size_s:
                degs = view.degrees(cur, w_probe)
                if not 100 * int(np.count_nonzero(100 * degs > 66 * size_s)) > 99 * size_s:
                    break
                rim = 100 * degs < 65 * size_s
                if rim.any():
                    stack.append((cur[rim], w_lo, depth + 1, node))
                    cur = cur[~rim]
                w_lo = w_probe
                w_probe = weights.pred(w_probe)
            stack.append((cur, w_lo, depth + 1, node))
    tree = UltrametricTree(n, parent, level)

    bound = PARTICIPATION_FACTOR * max(1, math.ceil(math.log2(max(n, 2))))
    report = L0FitReport(
        recursion_calls=calls,
        max_participation=int(participation.max()),
        participation_bound=bound,
        instances_consumed=0 if config is None else instances,
        peak_words=peak_words,
    )
    return L0FitResult(tree=tree, report=report)
