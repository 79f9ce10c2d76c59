import numpy as np
import pytest

from streamfit import fixedpoint as fp
from streamfit.evaluate import cost
from streamfit.streams import StreamIntegrityError, StreamSource
from streamfit.trees import UltrametricTree, from_ultrametric_matrix

U = fp.SCALE


def make_pair():
    D = np.array(
        [[0, 1, 3, 3], [1, 0, 3, 3], [3, 3, 0, 2], [3, 3, 2, 0]], dtype=np.int64
    ) * U
    return from_ultrametric_matrix(D), D


def test_zero_cost_against_own_matrix():
    tree, D = make_pair()
    report = cost(tree, StreamSource.from_square(D, order_seed=0))
    assert (report.l0, report.l1, report.linf) == (0, 0, 0)


def test_norms_and_gaps():
    tree, D = make_pair()
    noisy = D.copy()
    noisy[0, 1] = noisy[1, 0] = 2 * U  # one entry off by 1
    report = cost(tree, StreamSource.from_square(noisy, order_seed=1))
    assert report.l0 == 1
    assert report.l1 == 1 * U
    assert report.linf == 1 * U
    assert report.gap_delta == 1 * U  # smallest gap between distinct values
    assert report.gap_Delta == 1 * U  # spread 3 - 2


def test_point_count_mismatch():
    tree, _ = make_pair()
    small = np.array([[0, U], [U, 0]], dtype=np.int64)
    with pytest.raises(ValueError):
        cost(tree, StreamSource.from_square(small))


def test_incomplete_stream_rejected():
    tree, _ = make_pair()
    with pytest.raises(StreamIntegrityError):
        cost(tree, StreamSource(4, [0], [1], [U]))


@pytest.mark.parametrize(
    "D",
    [
        np.zeros((1, 1), dtype=np.int64),
        np.array([[0, 3], [3, 0]], dtype=np.int64) * U,
        (1 - np.eye(5, dtype=np.int64)) * 2 * U,
    ],
    ids=["n1", "n2", "one-valued"],
)
def test_gaps_need_two_distinct_values(D):
    """With fewer than two distinct distances both gaps read 0."""
    n = D.shape[0]
    tree = UltrametricTree.single_leaf() if n == 1 else from_ultrametric_matrix(D)
    report = cost(tree, StreamSource.from_square(D))
    assert (report.gap_delta, report.gap_Delta) == (0, 0)
    assert (report.l0, report.l1, report.linf) == (0, 0, 0)


def test_gaps_of_three_values():
    """gap_delta is the smallest gap between neighbouring distinct values
    and gap_Delta the spread: 1 and 3 over the values 1, 3 and 4."""
    D = np.array([[0, 1, 4], [1, 0, 4], [4, 4, 0]], dtype=np.int64) * U
    tree = from_ultrametric_matrix(D)
    D[1, 2] = D[2, 1] = 3 * U
    report = cost(tree, StreamSource.from_square(D))
    assert (report.gap_delta, report.gap_Delta) == (1 * U, 3 * U)
    assert (report.l0, report.l1, report.linf) == (1, 1 * U, 1 * U)
