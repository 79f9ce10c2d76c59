import ast
from pathlib import Path

import numpy as np
import pytest

import streamfit as sf
from streamfit import fixedpoint as fp
from streamfit.oracles import (
    MAX_N_L0,
    OracleUnavailable,
    brute_correlation,
    brute_l0_ultra,
    brute_l1_ultra,
    minimax_cert,
)
from streamfit.trees import DomainError, is_ultrametric

U = fp.SCALE


def two_cliques(n1, n2, lo=1, hi=3, flip=()):
    n = n1 + n2
    D = np.full((n, n), hi * U, dtype=np.int64)
    D[:n1, :n1] = lo * U
    D[n1:, n1:] = lo * U
    np.fill_diagonal(D, 0)
    for u, v in flip:
        D[u, v] = D[v, u] = (hi if D[u, v] == lo * U else lo) * U
    return D


class TestBruteL0:
    def test_ultrametric_input_costs_zero(self):
        D = two_cliques(3, 3)
        cost, tree = brute_l0_ultra(D)
        assert cost == 0
        assert np.array_equal(tree.induced_matrix(), D)

    def test_single_flip_costs_one(self):
        D = two_cliques(3, 3, flip=[(0, 1)])
        cost, tree = brute_l0_ultra(D)
        assert cost == 1
        assert is_ultrametric(tree.induced_matrix())

    def test_witness_tree_attains_reported_cost(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            iu, iv = np.triu_indices(n, 1)
            D = np.zeros((n, n), dtype=np.int64)
            vals = rng.choice([1, 2, 4], size=len(iu)) * U
            D[iu, iv] = vals
            D[iv, iu] = vals
            cost, tree = brute_l0_ultra(D)
            attained = int(np.count_nonzero(tree.induced_matrix()[iu, iv] != D[iu, iv]))
            assert attained == cost

    def test_budget_enforced(self):
        D = two_cliques(4, 4)
        with pytest.raises(OracleUnavailable):
            brute_l0_ultra(D)


@pytest.mark.parametrize("oracle", [brute_l0_ultra, brute_l1_ultra])
def test_time_cap_stops_the_enumeration(oracle):
    # any clock has run past a negative cap at the first check
    D = two_cliques(4, 3)
    assert D.shape[0] == MAX_N_L0
    with pytest.raises(OracleUnavailable, match="^enumeration time cap exceeded$"):
        oracle(D, time_cap=-1.0)


class TestBruteL1:
    def test_zero_on_ultrametric(self):
        cost, _ = brute_l1_ultra(two_cliques(2, 3))
        assert cost == 0

    def test_witness_attains_cost(self):
        D = two_cliques(3, 2, flip=[(0, 1)])
        cost, tree = brute_l1_ultra(D)
        iu, iv = np.triu_indices(5, 1)
        attained = int(np.abs(tree.induced_matrix() - D)[iu, iv].sum())
        assert attained == cost
        assert cost > 0

    def test_l1_never_exceeds_gap_times_l0(self):
        D = two_cliques(3, 3, flip=[(0, 1), (3, 4)])
        l0, _ = brute_l0_ultra(D)
        l1, _ = brute_l1_ultra(D)
        assert l1 <= l0 * int(D.max())


class TestBruteCorrelation:
    def test_two_cliques_zero(self):
        assert brute_correlation(two_cliques(4, 4)) == 0

    def test_single_flip_costs_one(self):
        assert brute_correlation(two_cliques(4, 4, flip=[(0, 1)])) == 1
        assert brute_correlation(two_cliques(4, 4, flip=[(0, 5)])) == 1

    def test_requires_two_values(self):
        D = np.zeros((3, 3), dtype=np.int64)
        D[np.triu_indices(3, 1)] = [1, 2, 3]
        D += D.T
        with pytest.raises(DomainError):
            brute_correlation(D)

    def test_one_value_costs_nothing(self):
        # one cluster, or all singletons, agrees with every pair
        for n in (2, 3, 5):
            D = np.full((n, n), 3 * U, dtype=np.int64)
            np.fill_diagonal(D, 0)
            assert brute_correlation(D) == 0

    def test_budget_enforced(self):
        with pytest.raises(OracleUnavailable):
            brute_correlation(two_cliques(5, 5))


class TestMinimaxCert:
    def test_triangle(self):
        D = np.array(
            [[0, 4, 2], [4, 0, 3], [2, 3, 0]], dtype=np.int64
        ) * (U // 2)
        relaxed, bound = minimax_cert(D)
        # path 0-2-1 caps the (0,1) distance at 3/2
        assert relaxed[0, 1] == 3 * (U // 2)
        assert bound == (4 - 3) * (U // 2) // 2

    def test_ultrametric_has_zero_bound(self):
        _, bound = minimax_cert(two_cliques(3, 4))
        assert bound == 0

    def test_relaxation_is_ultrametric(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            iu, iv = np.triu_indices(n, 1)
            D = np.zeros((n, n), dtype=np.int64)
            vals = rng.integers(1, 8, size=len(iu)) * U
            D[iu, iv] = vals
            D[iv, iu] = vals
            relaxed, _ = minimax_cert(D)
            assert is_ultrametric(relaxed)
            assert (relaxed <= D).all()


FITTER_MODULES = ("agreement", "l0fit", "linf", "sketches", "treefit", "evaluate")


def _streamfit_imports(module):
    """The streamfit modules that `module`'s source imports, by bare name."""
    path = Path(sf.__file__).parent / f"{module}.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "streamfit." + base if base else "streamfit"
            # `from . import trees` names a module, `from .trees import f` too
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return {name.split(".")[1] for name in names if name.startswith("streamfit.")}


def test_oracles_share_no_code_with_the_fitters():
    assert not _streamfit_imports("oracles") & set(FITTER_MODULES)
    for module in FITTER_MODULES:
        assert "oracles" not in _streamfit_imports(module), module
