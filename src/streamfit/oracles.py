"""Independent brute-force references for desk-scale verification.

These deliberately share no code with the streaming algorithms: the l0/l1
optimum enumerates level-labeled partitions directly, and the minimax oracle
is `trees.minimax_closure`, a relaxation sweep with no spanning-tree
machinery that `trees.is_ultrametric` and `trees.four_point_check` (at a
basepoint) share and no fitter calls.
"""

from __future__ import annotations

import time

import numpy as np

from . import trees
from .trees import DomainError, UltrametricTree

_INF = 1 << 62

# the largest n the tree enumeration and the partition search accept
MAX_N_L0 = 7
MAX_N_CC = 9


class OracleUnavailable(RuntimeError):
    """Instance exceeds the enumeration budget; callers must skip, not pass."""


def _enumerate_best_tree(matrix, pair_cost, time_cap):
    """Exact optimum over ultrametric trees with levels drawn from D's values.

    pair_cost(level) must return an n x n integer cost matrix for putting
    each pair at that level. Partitions are enumerated recursively over
    (subset bitmask, highest usable value index), memoized.
    """
    n = matrix.shape[0]
    if n > MAX_N_L0:
        raise OracleUnavailable(f"n={n} exceeds l0 enumeration cap {MAX_N_L0}")
    start = time.monotonic()
    iu, iv = np.triu_indices(n, k=1)
    values = np.unique(matrix[iu, iv])
    nv = len(values)

    # row_cost[vi][u][mask] = sum of pair costs from u into the mask at values[vi]
    row_cost = []
    for level in values:
        pc = pair_cost(level)
        table = np.zeros((n, 1 << n), dtype=np.int64)
        for mask in range(1, 1 << n):
            low = (mask & -mask).bit_length() - 1
            table[:, mask] = table[:, mask ^ (1 << low)] + pc[:, low]
        row_cost.append(table)

    def cross(block, rest, vi):
        total = 0
        b = block
        while b:
            low = (b & -b).bit_length() - 1
            total += int(row_cost[vi][low][rest])
            b &= b - 1
        return total

    best_memo: dict = {}
    cover_memo: dict = {}

    def best(mask, vi):
        if mask & (mask - 1) == 0:
            return 0, mask.bit_length() - 1
        if vi < 0:
            return _INF, None
        key = (mask, vi)
        hit = best_memo.get(key)
        if hit is not None:
            return hit
        result = best(mask, vi - 1)
        split_cost, split_nodes = cover(mask, vi, allow_single=False)
        if split_cost < result[0]:
            result = (split_cost, (int(values[vi]), split_nodes))
        best_memo[key] = result
        return result

    def cover(mask, vi, allow_single=True):
        """Partition mask into blocks at level values[vi]; blocks recurse below."""
        key = (mask, vi, allow_single)
        hit = cover_memo.get(key)
        if hit is not None:
            return hit
        if time.monotonic() - start > time_cap:
            raise OracleUnavailable("enumeration time cap exceeded")
        low_bit = mask & -mask
        rest_all = mask ^ low_bit
        result = (_INF, None)
        block = low_bit
        # iterate all submasks of mask containing the lowest set bit
        sub = rest_all
        while True:
            block = low_bit | sub
            rest = mask ^ block
            if rest or allow_single:
                inner_cost, inner_node = best(block, vi - 1)
                if inner_cost < _INF:
                    total = inner_cost + cross(block, rest, vi)
                    nodes = [inner_node]
                    if rest:
                        tail_cost, tail_nodes = cover(rest, vi, allow_single=True)
                        total += tail_cost
                        nodes = nodes + (tail_nodes or [])
                    if total < result[0]:
                        result = (total, nodes)
            if sub == 0:
                break
            sub = (sub - 1) & rest_all
        cover_memo[key] = result
        return result

    full = (1 << n) - 1
    cost_value, root = best(full, nv - 1)
    if root is None or cost_value >= _INF:
        raise OracleUnavailable("no feasible tree found")
    return int(cost_value), UltrametricTree.from_nested(n, root)


def brute_l0_ultra(matrix, time_cap: float = 60.0):
    """Exact minimum of ||U - D||_0 plus a witness tree.

    Raises `OracleUnavailable` past `MAX_N_L0` points or once the
    enumeration has run `time_cap` seconds.
    """
    matrix = trees._checked_square(matrix)

    def pair_cost(level):
        pc = (matrix != level).astype(np.int64)
        np.fill_diagonal(pc, 0)
        return pc

    return _enumerate_best_tree(matrix, pair_cost, time_cap)


def brute_l1_ultra(matrix, time_cap: float = 60.0):
    """Exact minimum of ||U - D||_1 plus a witness tree (same tree space
    and the same caps as `brute_l0_ultra`)."""
    matrix = trees._checked_square(matrix)

    def pair_cost(level):
        pc = np.abs(matrix - level)
        np.fill_diagonal(pc, 0)
        return pc

    return _enumerate_best_tree(matrix, pair_cost, time_cap)


def brute_correlation(matrix) -> int:
    """Exact minimum disagreements for a matrix of at most two values.

    Small distance = similar. Enumerates every set partition; a same-cluster
    pair at the large value or a cross-cluster pair at the small value is
    one disagreement.
    """
    matrix = trees._checked_square(matrix)
    n = matrix.shape[0]
    iu, iv = np.triu_indices(n, k=1)
    values = np.unique(matrix[iu, iv])
    if n > MAX_N_CC:
        raise OracleUnavailable(f"n={n} exceeds partition cap {MAX_N_CC}")
    # with at most one value, one cluster or all singletons agree everywhere
    if len(values) < 2:
        return 0
    if len(values) != 2:
        raise DomainError("matrix must contain exactly two distinct values")
    similar = matrix == int(values[0])

    best = [n * n]
    labels = [0] * n

    def search(i, used, acc):
        if acc >= best[0]:
            return
        if i == n:
            best[0] = acc
            return
        for c in range(used + 1):
            delta = 0
            for j in range(i):
                if (labels[j] == c) != similar[i, j]:
                    delta += 1
            labels[i] = c
            search(i + 1, used + (1 if c == used else 0), acc + delta)

    search(1, 1, 0)
    return int(best[0])


def minimax_cert(matrix, max_n: int = 256):
    """All-pairs minimax path values and the derived l-infinity lower bound.

    Returns (minimax matrix, bound) where bound = max(D - minimax) / 2.
    """
    matrix = trees._checked_square(matrix)
    n = matrix.shape[0]
    if n > max_n:
        raise OracleUnavailable(f"n={n} exceeds minimax cap {max_n}")
    relaxed = trees.minimax_closure(matrix)
    slack = int((matrix - relaxed).max()) if n > 1 else 0
    if slack % 2 != 0:
        raise DomainError("half-unit bound not representable; use even inputs")
    return relaxed, slack // 2
