"""Divisive l0 ultrametric fitting.

One top-down recursion over (vertex set, working threshold) pairs: cluster S
against the predecessor threshold, recurse into every cluster of at most a
`CLUSTER_SPLIT` share of S, and peel low-degree rims off a dominant cluster
while stepping the threshold down through the stored weight set. Each rim
meets what remains of the cluster at the threshold it was peeled below, so
every peel step that takes a rim adds one tree node there. A call's
clustering and its peel loop's degree probes go through one view: exact
mode answers from the dense matrix, sketch mode from the single-pass sketch
pools, spending one fresh sketch instance per recursion level. Every share
of S that a call compares with is a rule of the table in `agreement.py`,
turned into an integer cut-off once per call. The dense and rim tests
compare degrees with cut-offs fixed by |S|, so a peel loop asks its view
once for a probe (`peel_probe`) and each probe takes the positions of the
dominant cluster still left and a threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import agreement
from .agreement import (
    AgreementParams,
    ExactView,
    SketchView,
    s_structural_clustering,
)
from .sketches import CompressedSet, SketchConfig, SketchPools
from .streams import StreamSource
from .trees import UltrametricTree


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


def fit_l0(source: StreamSource, config: SketchConfig = None) -> L0FitResult:
    """Fit an ultrametric tree minimizing disagreement count (approximately).

    `config` selects the predicate backend. Without one, exact mode
    materializes the matrix and is the deterministic reference path; with a
    `SketchConfig`, sketch mode consumes the stream once up front into
    pools of that configuration.
    """
    params = AgreementParams()
    n = source.n

    if config is None:
        matrix = source.dense()
        # the distances of the pass that `dense` has just read
        d = source.d
        weights = CompressedSet(d)
        exact_view = ExactView(matrix)
        peak_words = n * n

        def make_view(depth):
            return exact_view

    else:
        pools = SketchPools(config, n)
        u, v, d = source.arrays()
        pools.bulk_ingest(u, v, d)
        del u, v
        peak_words = pools.peak_words
        weights = pools.build_compressed_set()

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
    # than one vertex and one per peeled rim
    parent = [-1] * n
    level = [0] * n
    # work-list of calls (S, w, depth, parent node id) on two or more
    # vertices. A call's degree probes run before its children's calls, and
    # the calls may run in any order: each reads only the matrix or the
    # finished sketch pools.
    stack = []

    def call(s_arr, w, depth, up):
        """Count a recursion call on S: a singleton S is its own leaf under
        `up` at once, and a larger S waits on the stack."""
        nonlocal calls
        calls += 1
        if len(s_arr) == 1:
            # a scalar index: most calls are singletons
            leaf = int(s_arr[0])
            participation[leaf] += 1
            parent[leaf] = up
        else:
            participation[s_arr] += 1
            stack.append((s_arr, w, depth, up))

    if n > 1:
        # the top threshold is the largest distance of the pass read, whose
        # arrays the recursion does not keep
        call(np.arange(n, dtype=np.int64), int(d.max()), 0, -1)
    del d
    while stack:
        s_arr, w, depth, up = stack.pop()
        node = len(parent)
        parent.append(up)
        level.append(int(w))
        w_check = weights.pred(w)
        view = make_view(depth)
        instances = max(instances, depth + 1)
        clustering = s_structural_clustering(s_arr, w_check, params, view)
        size_s = len(s_arr)
        split = math.floor(agreement.CLUSTER_SPLIT * size_s)
        big = None
        for cluster in clustering.clusters:
            if len(cluster) <= split:
                call(cluster, w_check, depth + 1, node)
            else:
                big = cluster
        if big is not None:
            # a degree d is dense when d > DENSE_CUT |S| and on the rim when
            # d < RIM_CUT |S|: integer cut-offs fixed for the whole loop
            k_dense = math.floor(agreement.DENSE_CUT * size_s) + 1
            k_rim = math.ceil(agreement.RIM_CUT * size_s)
            stop = math.floor(agreement.PEEL_STOP * size_s)
            probe = view.peel_probe(big, k_dense, k_rim)
            pos = np.arange(len(big))
            hang = node
            w_lo = w_check
            w_probe = weights.pred(w_lo)
            while len(pos) > stop:
                dense, rim = probe(pos, w_probe)
                if np.count_nonzero(dense) <= stop:
                    break
                if rim.any():
                    # a rim peeled at w_probe meets what remains at w_lo, so
                    # both hang on a node at w_lo below the last one
                    parent.append(hang)
                    level.append(int(w_lo))
                    hang = len(parent) - 1
                    call(big[pos[rim]], w_lo, depth + 1, hang)
                    pos = pos[~rim]
                w_lo = w_probe
                w_probe = weights.pred(w_probe)
            call(big[pos], w_lo, depth + 1, hang)
    tree = UltrametricTree(n, parent, level)

    bound = agreement.PARTICIPATION_FACTOR * max(1, math.ceil(math.log2(max(n, 2))))
    report = L0FitReport(
        recursion_calls=calls,
        max_participation=int(participation.max()),
        participation_bound=bound,
        instances_consumed=0 if config is None else instances,
        peak_words=peak_words,
    )
    return L0FitResult(tree=tree, report=report)
