import numpy as np
import pytest

import streamfit as sf
from streamfit import fixedpoint as fp
from streamfit.streams import (
    ConfigError,
    GeneratorSpec,
    MemoryMeter,
    ParseError,
    StreamIntegrityError,
    StreamSource,
    generate,
    pair_index,
)
from streamfit.trees import TreeMetricRep, four_point_check, is_ultrametric

U = fp.SCALE


def small_matrix():
    D = np.array([[0, 1, 2], [1, 0, 2], [2, 2, 0]], dtype=np.int64) * U
    return D


def test_pair_index_covers_all_pairs():
    n = 9
    seen = {pair_index(n, u, v) for u in range(n) for v in range(u + 1, n)}
    assert seen == set(range(n * (n - 1) // 2))


class TestStreamSource:
    def test_dense_roundtrip(self):
        D = small_matrix()
        src = StreamSource.from_square(D, order_seed=11)
        assert np.array_equal(src.dense(), D)

    def test_each_pass_is_permuted_but_complete(self):
        D = small_matrix()
        src = StreamSource.from_square(D, order_seed=11)
        a = list(zip(*src.arrays(0)))
        b = list(zip(*src.arrays(1)))
        assert sorted(a) == sorted(b)
        # the same pass replays identically
        assert a == list(zip(*src.arrays(0)))

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(StreamIntegrityError):
            StreamSource(2, [0], [1], [0])

    def test_rejects_bad_pair(self):
        with pytest.raises(StreamIntegrityError):
            StreamSource(2, [1], [1], [5])

    def test_duplicate_pair_detected(self):
        with pytest.raises(StreamIntegrityError):
            StreamSource(3, [0, 0, 1, 0], [1, 2, 2, 1], [1, 1, 1, 2])
        # a repeat in place of a missing pair keeps the entry count right
        with pytest.raises(StreamIntegrityError, match="duplicate"):
            StreamSource(3, [0, 0, 0], [1, 2, 1], [1, 1, 2])

    def test_missing_pair_detected(self):
        with pytest.raises(StreamIntegrityError):
            StreamSource(3, [0, 0], [1, 2], [1, 1])

    def test_file_roundtrip(self, tmp_path):
        D = small_matrix()
        src = StreamSource.from_square(D, order_seed=4)
        path = tmp_path / "stream.txt"
        src.write_file(path)
        text = path.read_text()
        assert text.splitlines()[0] == "3"
        again = StreamSource.from_file(path)
        assert np.array_equal(again.dense(), D)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n0 1 1\n0 2 oops\n")
        with pytest.raises(ParseError, match="bad.txt:3"):
            StreamSource.from_file(path)

    def test_parse_error_on_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("zap\n")
        with pytest.raises(ParseError, match=":1"):
            StreamSource.from_file(path)


class TestMemoryMeter:
    def test_peak_is_monotone(self):
        meter = MemoryMeter()
        meter.add("a", 10)
        meter.add("b", 5)
        assert meter.peak == 15
        meter.add("a", -8)
        assert meter.peak == 15
        meter.set_words("b", 20)
        assert meter.peak == 22


class TestGenerators:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            generate(GeneratorSpec(kind="nope", n=4, seed=0))

    def test_planted_ultrametric_truth_matches_stream(self):
        src, truth = generate(GeneratorSpec(kind="planted_ultrametric", n=24, seed=5))
        assert np.array_equal(truth.induced_matrix(), src.dense())
        assert is_ultrametric(src.dense())

    def test_planted_ultrametric_respects_alphabet(self):
        alphabet = [1 * U, 3 * U, 7 * U]
        src, _ = generate(
            GeneratorSpec(
                kind="planted_ultrametric", n=16, seed=2, value_alphabet=alphabet
            )
        )
        values = np.unique(src.dense()[np.triu_indices(16, 1)])
        assert set(values.tolist()) <= set(alphabet)

    def test_planted_tree_metric_passes_four_point(self):
        src, truth = generate(GeneratorSpec(kind="planted_tree_metric", n=20, seed=7))
        D = src.dense()
        assert four_point_check(D)
        assert isinstance(truth, TreeMetricRep)
        assert np.array_equal(truth.induced_matrix(), D)

    def test_two_valued_has_two_values(self):
        src, _ = generate(GeneratorSpec(kind="two_valued", n=12, seed=1))
        values = np.unique(src.dense()[np.triu_indices(12, 1)])
        assert len(values) == 2

    def test_noise_changes_exactly_k_entries(self):
        clean, _ = generate(GeneratorSpec(kind="planted_ultrametric", n=20, seed=9))
        noisy, _ = generate(
            GeneratorSpec(kind="planted_ultrametric", n=20, seed=9, noise_k=5)
        )
        diff = np.count_nonzero(
            np.triu(clean.dense() != noisy.dense(), k=1)
        )
        assert diff == 5

    def test_generation_is_deterministic(self):
        a, _ = generate(GeneratorSpec(kind="uniform_random", n=10, seed=3))
        b, _ = generate(GeneratorSpec(kind="uniform_random", n=10, seed=3))
        assert np.array_equal(a.dense(), b.dense())

    def test_spec_json_roundtrip(self):
        spec = GeneratorSpec(
            kind="two_valued", n=8, seed=4, noise_k=1, value_alphabet=[U, 2 * U]
        )
        again = GeneratorSpec.from_json(spec.to_json())
        assert again == spec
