import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamfit import fixedpoint as fp
from streamfit.linf import MstState, fit_linf_exact, fit_linf_min_decrement
from streamfit.oracles import minimax_cert
from streamfit.streams import GeneratorSpec, StreamSource, generate
from streamfit.trees import is_ultrametric

U = fp.SCALE


def triangle():
    """Distances 2, 1.5, 1 on three points."""
    D = np.array([[0, 4, 2], [4, 0, 3], [2, 3, 0]], dtype=np.int64) * (U // 2)
    return D


class TestMinDecrement:
    def test_triangle_tree(self):
        src = StreamSource.from_square(triangle(), order_seed=0)
        tree = fit_linf_min_decrement(src)
        M = tree.induced_matrix()
        assert M[0, 2] == 2 * (U // 2)
        assert M[1, 2] == 3 * (U // 2)
        assert M[0, 1] == 3 * (U // 2)

    def test_never_exceeds_input(self):
        rng = np.random.default_rng(1)
        for trial in range(15):
            n = int(rng.integers(2, 9))
            iu, iv = np.triu_indices(n, 1)
            D = np.zeros((n, n), dtype=np.int64)
            vals = rng.integers(1, 9, size=len(iu)) * U
            D[iu, iv] = vals
            D[iv, iu] = vals
            src = StreamSource.from_square(D, order_seed=trial)
            M = fit_linf_min_decrement(src).induced_matrix()
            assert (M <= D).all()

    def test_order_independent(self):
        D = triangle()
        trees = {
            fit_linf_min_decrement(
                StreamSource.from_square(D, order_seed=seed)
            ).to_json()
            for seed in range(6)
        }
        assert len(trees) == 1

    def test_single_point(self):
        src = StreamSource(1, [], [], [])
        assert fit_linf_min_decrement(src).n == 1


class TestExact:
    def test_triangle_cost_and_certificate(self):
        src = StreamSource.from_square(triangle(), order_seed=0)
        res = fit_linf_exact(src)
        assert res.optimal_cost == U // 4  # 0.25
        assert res.certificate_pair == (0, 1)
        assert is_ultrametric(res.tree.induced_matrix())

    def test_zero_cost_on_ultrametric(self):
        D = np.array([[0, 1, 2], [1, 0, 2], [2, 2, 0]], dtype=np.int64) * U
        res = fit_linf_exact(StreamSource.from_square(D, order_seed=3))
        assert res.optimal_cost == 0
        assert np.array_equal(res.tree.induced_matrix(), D)

    def test_matches_relaxation_bound(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            n = int(rng.integers(3, 9))
            iu, iv = np.triu_indices(n, 1)
            D = np.zeros((n, n), dtype=np.int64)
            vals = rng.integers(1, 12, size=len(iu)) * U
            D[iu, iv] = vals
            D[iv, iu] = vals
            src = StreamSource.from_square(D, order_seed=trial)
            res = fit_linf_exact(src)
            _, bound = minimax_cert(D)
            assert res.optimal_cost == bound
            err = int(np.abs(res.tree.induced_matrix() - D).max())
            assert err == res.optimal_cost

    def test_one_pass_within_twice_optimal(self):
        rng = np.random.default_rng(11)
        for trial in range(15):
            n = int(rng.integers(3, 8))
            iu, iv = np.triu_indices(n, 1)
            D = np.zeros((n, n), dtype=np.int64)
            vals = rng.integers(1, 10, size=len(iu)) * U
            D[iu, iv] = vals
            D[iv, iu] = vals
            src = StreamSource.from_square(D, order_seed=trial)
            one = fit_linf_min_decrement(src)
            err = int(np.abs(one.induced_matrix() - D).max())
            opt = fit_linf_exact(src).optimal_cost
            assert err <= 2 * opt


class TestMstState:
    def test_keeps_at_most_n_minus_one_edges(self):
        state = MstState(4)
        edges = [(0, 1, 5), (1, 2, 3), (2, 3, 4), (0, 2, 1), (0, 3, 2), (1, 3, 6)]
        state.ingest_batch(*zip(*edges))
        kept = state.edges()
        assert len(kept) == 3
        assert sorted(w for w, _, _ in kept) == [1, 2, 3]

    def test_cycle_evicts_heaviest(self):
        state = MstState(3)
        state.ingest_batch([0, 1, 0], [1, 2, 2], [10, 1, 2])
        assert state.edges() == [(1, 1, 2), (2, 0, 2)]


def kruskal_reference(n, edges):
    """Brute-force Kruskal over every edge under the (w, max, min) order."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    kept = []
    for u, v, w in sorted(edges, key=lambda e: (e[2], max(e[:2]), min(e[:2]))):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            kept.append((w, min(u, v), max(u, v)))
    return sorted(kept)


@given(
    n=st.integers(min_value=10, max_value=120),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    max_weight=st.sampled_from([2, 5, 1000]),
    late=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_mst_state_matches_brute_force_kruskal(n, seed, max_weight, late):
    """Random order, batches of random length (single edges among them);
    the 4n buffer compacts several times mid-stream. Weights up to 2 tie
    heavily, so the filter must compare whole keys. A late stream sends
    the edges inside the sides of a random cut first, so the forest spans
    only once the crossing edges arrive, and until then the filter meets
    edges whose endpoints no forest path joins."""
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, 1)
    w = rng.integers(1, max_weight + 1, size=len(iu))
    order = rng.permutation(len(iu))
    flip = rng.random(len(iu)) < 0.5
    u = np.where(flip, iv, iu)[order]
    v = np.where(flip, iu, iv)[order]
    w = w[order]
    if late:
        side = rng.integers(0, 2, size=n)
        side[:2] = 0, 1
        crossing = np.argsort(side[u] != side[v], kind="stable")
        u, v, w = u[crossing], v[crossing], w[crossing]
    state = MstState(n)
    start = 0
    while start < len(w):
        stop = start + int(rng.integers(1, 3 * n))
        if rng.random() < 0.5:
            for i in range(start, stop):
                state.ingest_batch(u[i : i + 1], v[i : i + 1], w[i : i + 1])
        else:
            state.ingest_batch(u[start:stop], v[start:stop], w[start:stop])
        start = stop
    expected = kruskal_reference(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
    assert state.edges() == expected
    assert len(expected) == n - 1


def test_filter_keeps_compactions_few(monkeypatch):
    """On a uniform n = 192 stream (weights 1 to 3, so ties everywhere)
    the state compacts 3 times; without the filter it compacts 24 times,
    once per 4n edges."""
    n = 192
    source, _ = generate(GeneratorSpec(kind="uniform_random", n=n, seed=0))
    compactions = 0
    compact = MstState._compact

    def counted(state):
        nonlocal compactions
        compactions += 1
        compact(state)

    monkeypatch.setattr(MstState, "_compact", counted)
    state = MstState(n)
    state.ingest_batch(*source.arrays())
    assert len(state.edges()) == n - 1
    assert compactions <= 6


def test_mst_state_memory_is_forest_plus_linear_buffer():
    n = 40
    rng = np.random.default_rng(5)
    iu, iv = np.triu_indices(n, 1)
    w = rng.integers(1, 50, size=len(iu))
    state = MstState(n)
    storage = (state._w, state._hi, state._lo)
    assert all(len(arr) == (n - 1) + 4 * n for arr in storage)
    for i in range(len(w)):
        state.ingest_batch(iu[i : i + 1], iv[i : i + 1], w[i : i + 1])
        assert state.forest_size <= n - 1
        assert state.size < state.capacity
    state.edges()
    assert all(a is b for a, b in zip((state._w, state._hi, state._lo), storage))
    assert state.size == state.forest_size == n - 1


def test_caterpillar_is_fit_exactly_without_recursion_error():
    """D(i,j) = max(i,j) makes the forest a star and the tree a 1199-level
    caterpillar."""
    n = 1200
    idx = np.arange(n, dtype=np.int64)
    D = np.maximum.outer(idx, idx) * U
    np.fill_diagonal(D, 0)
    res = fit_linf_exact(StreamSource.from_square(D, order_seed=1))
    assert res.optimal_cost == 0
    assert np.array_equal(res.tree.induced_matrix(), D)
    shifted = res.tree.shift_levels(U)
    assert shifted.distance(0, 1) == 2 * U
    assert shifted.distance(n - 2, n - 1) == n * U


@st.composite
def random_distance_matrix(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    iu, iv = np.triu_indices(n, 1)
    vals = draw(
        st.lists(
            st.integers(min_value=1, max_value=8),
            min_size=len(iu),
            max_size=len(iu),
        )
    )
    D = np.zeros((n, n), dtype=np.int64)
    D[iu, iv] = np.asarray(vals, dtype=np.int64) * U
    D[iv, iu] = D[iu, iv]
    return D


@given(random_distance_matrix())
@settings(max_examples=40, deadline=None)
def test_exact_cost_equals_minimax_bound(D):
    src = StreamSource.from_square(D, order_seed=0)
    res = fit_linf_exact(src)
    _, bound = minimax_cert(D)
    assert res.optimal_cost == bound
