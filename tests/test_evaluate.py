import numpy as np
import pytest

from streamfit import fixedpoint as fp
from streamfit.evaluate import cost
from streamfit.streams import StreamIntegrityError, StreamSource
from streamfit.trees import from_ultrametric_matrix

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
