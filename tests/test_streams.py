import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import streamfit as sf
from streamfit import cli
from streamfit import fixedpoint as fp
from streamfit import streams
from streamfit.l0fit import fit_l0
from streamfit.linf import fit_linf_exact, fit_linf_min_decrement
from streamfit.sketches import SketchConfig
from streamfit.streams import (
    ConfigError,
    GeneratorSpec,
    ParseError,
    StreamIntegrityError,
    StreamSource,
    generate,
    pair_index,
)
from streamfit.treefit import fit_l0_tree, fit_linf_tree
from streamfit.trees import (
    TreeMetricRep,
    UltrametricTree,
    four_point_check,
    from_ultrametric_matrix,
    is_ultrametric,
)

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
        # each read is a pass of its own
        src.dense()
        assert src.passes_read == 2

    def test_each_pass_is_permuted_but_complete(self):
        # 28 pairs, so two passes in one order would be a 1 in 28! chance
        D = generate(GeneratorSpec(kind="uniform_random", n=8, seed=1))[0].dense()
        src = StreamSource.from_square(D, order_seed=11)
        a = list(zip(*src.arrays()))
        b = list(zip(*src.arrays()))
        assert sorted(a) == sorted(b)
        assert a != b
        # a second source with the seed hands out the same passes in turn
        again = StreamSource.from_square(D, order_seed=11)
        assert [list(zip(*again.arrays())) for _ in range(2)] == [a, b]

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


# the fit paths of the CLI: (name, pass budget, fitter of a generated source)
FIT_PATHS = (
    ("linf1", 1, fit_linf_min_decrement),
    ("linf2", 2, fit_linf_exact),
    ("l0exact", 1, fit_l0),
    ("l0sketch", 1, lambda src: fit_l0(
        src, config=SketchConfig.scaled(src.n, seed=1))),
    ("treelinf", 2, fit_linf_tree),
    ("treel0", 2, lambda src: fit_l0_tree(src, seed=1)),
    ("treel0sketch", 2, lambda src: fit_l0_tree(
        src, config=SketchConfig.scaled(src.n, seed=1), seed=1)),
)


@pytest.mark.parametrize(
    "kind, n, noise",
    [("uniform_random", 1, 0), ("planted_tree_metric", 2, 0),
     ("planted_ultrametric", 40, 60)],
    ids=["n1", "n2", "n40"],
)
@pytest.mark.parametrize("fit", FIT_PATHS, ids=[f[0] for f in FIT_PATHS])
def test_each_fit_reads_exactly_its_pass_budget(kind, n, noise, fit):
    _, budget, fitter = fit
    src, _ = generate(GeneratorSpec(kind=kind, n=n, seed=3, noise_k=noise))
    assert src.passes_read == 0
    fitter(src)
    assert src.passes_read == budget


@pytest.mark.parametrize("fit", FIT_PATHS, ids=[f[0] for f in FIT_PATHS])
def test_each_fit_reads_its_input_once_per_pass(fit):
    """Every read of the input goes through `arrays` or `dense`, and a fit
    makes no more of them than its budget: the four pivots of an `l0` tree
    fit share one read of pass 1."""
    _, budget, fitter = fit
    src, _ = generate(
        GeneratorSpec(kind="planted_ultrametric", n=40, seed=3, noise_k=60)
    )
    reads = []

    def spy(name):
        real = getattr(StreamSource, name)

        def read(self):
            if self is src:
                reads.append(name)
            return real(self)

        return read

    with mock.patch.object(StreamSource, "arrays", spy("arrays")), \
            mock.patch.object(StreamSource, "dense", spy("dense")):
        fitter(src)
    assert len(reads) == budget == src.passes_read


def drawn_tree_metric(n, seed):
    """Path lengths, by Floyd-Warshall, of the weighted tree that
    `planted_tree_metric` draws for (n, seed) with the default alphabet."""
    rng = streams._rng(seed, 1)
    D = np.full((n, n), np.iinfo(np.int64).max // 4)
    np.fill_diagonal(D, 0)
    if n > 1:
        for a, b in streams._prufer_tree(rng, n):
            D[a, b] = D[b, a] = int(rng.choice([U, 2 * U, 3 * U]))
    for k in range(n):
        np.minimum(D, D[:, k, None] + D[None, k, :], out=D)
    return D


def drawn_two_valued(n, seed):
    """The matrix of the labels that `two_valued` draws for (n, seed) with
    the default alphabet: 1 within a label, 2 across."""
    rng = streams._rng(seed, 1)
    groups = int(rng.integers(2, max(3, n // 3 + 1)))
    labels = rng.integers(0, groups, size=n)
    D = np.where(np.equal.outer(labels, labels), U, 2 * U)
    np.fill_diagonal(D, 0)
    return D


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

    @pytest.mark.parametrize("n", [20, 512])
    def test_planted_tree_metric_passes_four_point(self, n):
        """The noiseless stream passes, and fails once one pair is raised by
        2 units."""
        src, truth = generate(GeneratorSpec(kind="planted_tree_metric", n=n, seed=7))
        D = src.dense()
        assert four_point_check(D)
        assert isinstance(truth, TreeMetricRep)
        assert np.array_equal(truth.induced_matrix(), D)
        D[0, 1] += 2
        D[1, 0] += 2
        assert not four_point_check(D)

    def test_planted_tree_metric_peak_memory_is_pinned_at_n_1024(self):
        """The truth is built from the tree's own parent and level arrays
        and the stream from the m pair distances it answers, so no n x n
        matrix exists: the peak stays under 3.5 n x n int64 matrices (it
        reads about 2.2)."""
        n = 1024
        tracemalloc.start()
        try:
            generate(GeneratorSpec(kind="planted_tree_metric", n=n, seed=1, noise_k=n // 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * n * n * 8

    def test_dense_allocates_one_matrix(self):
        """`dense` scatters both triangles into its output, so its peak is
        the n x n int64 matrix it returns; adding the transpose made it two."""
        n = 512
        src, _ = generate(GeneratorSpec(kind="uniform_random", n=n, seed=1))
        tracemalloc.start()
        try:
            D = src.dense()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * n * n * 8
        assert np.array_equal(D, D.T)
        assert np.array_equal(D[src.u, src.v], src.d) and not D.diagonal().any()

    @pytest.mark.parametrize("kind", GeneratorSpec.KINDS)
    def test_every_kind_peaks_under_2_4_matrices_at_n_1024(self, kind):
        """The pair arrays, the distances and the completeness check's one
        index array of m words set the peak; an n x n int64 matrix would
        lift it past 2.4 of them."""
        n = 1024
        generate(GeneratorSpec(kind=kind, n=8, seed=0, noise_k=4))  # warm-up
        tracemalloc.start()
        try:
            generate(GeneratorSpec(kind=kind, n=n, seed=1, noise_k=n // 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.4 * n * n * 8

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 13, 40])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_planted_truths_match_their_matrix_reference(self, n, seed):
        """The noiseless stream is the matrix that the generator's draws
        describe, and each truth is the tree `from_ultrametric_matrix`
        recovers from that matrix: D + C rooted at pivot 0 for the tree
        metric, D itself for two_valued. Noise edits only the stream, never
        the truth; below three points one value leaves no noise pool."""
        D = drawn_tree_metric(n, seed)
        row = D[0]
        C = 2 * row.max() - row[:, None] - row[None, :]
        np.fill_diagonal(C, 0)
        for noise in sorted({0, 1, n // 2}) if n >= 3 else [0]:
            src, truth = generate(GeneratorSpec(
                kind="planted_tree_metric", n=n, seed=seed, noise_k=noise))
            if noise == 0:
                assert np.array_equal(src.dense(), D)
            if n == 1:
                assert truth == UltrametricTree.single_leaf()
            else:
                assert isinstance(truth, TreeMetricRep)
                assert truth.base == from_ultrametric_matrix(D + C)
                assert truth.pivot == 0
                assert np.array_equal(truth.pivot_row, row)

        D = drawn_two_valued(n, seed)
        for noise in sorted({0, 1, n // 2}) if n >= 3 else [0]:
            src, truth = generate(GeneratorSpec(
                kind="two_valued", n=n, seed=seed, noise_k=noise))
            if noise == 0:
                assert np.array_equal(src.dense(), D)
            assert truth == from_ultrametric_matrix(D)

    @pytest.mark.parametrize("kind, alphabet", [
        # each weight fits, but a path of three edges does not
        ("planted_tree_metric", "999999999"),
        # a value past 64 bits, on every kind
        ("planted_tree_metric", "1,99999999999"),
        ("planted_ultrametric", "1,99999999999"),
        ("two_valued", "1,99999999999"),
        ("uniform_random", "1,99999999999"),
        # a zero weight, rejected before anything is drawn
        ("planted_tree_metric", "0,1"),
        ("two_valued", "0,1"),
    ])
    def test_distances_beyond_64_bits_exit_3(self, tmp_path, capsys, kind, alphabet):
        out = tmp_path / "d.txt"
        code = cli.main([
            "gen", "--kind", kind, "--n", "10", "--alphabet", alphabet,
            "--out", str(out),
        ])
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        if "0" in alphabet.split(","):
            assert "alphabet" in lines[0]
        assert not out.exists()

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


DISTANCES = st.one_of(
    st.integers(1, 10**12).map(lambda k: fp.to_decimal(2 * k)),
    st.from_regex(r"\A0{0,2}[1-9][0-9]{0,6}(\.[0-9]{1,9})?\Z"),
    st.from_regex(r"\A0?\.[0-9]{0,8}[1-9]\Z"),
)


@st.composite
def stream_lines(draw):
    """A valid stream file as its header and body lines, in random order,
    with random token order, leading zeros and spacing."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    lines = []
    for u, v in draw(st.permutations(pairs)):
        if draw(st.booleans()):
            u, v = v, u
        tokens = [draw(st.sampled_from(["", "0"])) + str(x) for x in (u, v)]
        gaps = [" " * draw(st.integers(1, 2)) for _ in range(2)]
        text = f"{tokens[0]}{gaps[0]}{tokens[1]}{gaps[1]}{draw(DISTANCES)}"
        lines.append(text.encode())
    return f"{n}".encode(), lines


STRAY = [b"+", b"-", b"_", b"e", b".", b"\t", b"\r", b"\xc3\xa9", b"\x00"]
MUTATIONS = [
    "none", "drop", "duplicate", "swap", "stray", "dot-in-uv", "second-dot",
    "empty-fraction", "ten-fraction", "zero", "blank", "no-final-newline",
    "huge", "long-line", "split",
]
TOKEN_EDITS = (
    "dot-in-uv", "second-dot", "empty-fraction", "ten-fraction", "zero", "huge"
)


def mutate(draw, header, lines, kind):
    """The file's bytes after one mutation of the given kind."""
    lines = list(lines)

    def pick():
        return draw(st.integers(0, len(lines) - 1))

    if kind == "drop" and lines:
        del lines[pick()]
    elif kind == "duplicate" and lines:
        lines.insert(pick(), lines[pick()])
    elif kind == "swap" and lines:
        i, j = pick(), pick()
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "stray":
        target = [header, *lines]
        i = draw(st.integers(0, len(target) - 1))
        at = draw(st.integers(0, len(target[i])))
        target[i] = target[i][:at] + draw(st.sampled_from(STRAY)) + target[i][at:]
        header, lines = target[0], target[1:]
    elif kind in TOKEN_EDITS and lines:
        i = pick()
        u, v, d = lines[i].split()
        if kind == "dot-in-uv":
            dotted = u + b"." + draw(st.sampled_from([b"", b"5"]))
            u, v = draw(st.permutations([dotted, v]))
        elif kind == "second-dot":
            d = d + (b".5" if b"." in d else b".5.5")
        elif kind == "empty-fraction":
            d = d.partition(b".")[0] + b"."
        elif kind == "ten-fraction":
            d = b"1.0000000001"
        elif kind == "zero":
            d = draw(st.sampled_from([b"0", b"0.000", b"00"]))
        else:
            u, d = draw(st.sampled_from([
                (b"1" + b"0" * 19, d), (b"9" * 19, d), (b"0" * 30 + u, d),
                (u, b"99999999999"), (u, b"9999999999"), (u, b"4999999999.5"),
            ]))
        lines[i] = b" ".join([u, v, d])
    elif kind == "blank":
        blank = draw(st.sampled_from([b"", b"  "]))
        lines.insert(draw(st.integers(0, len(lines))), blank)
    elif kind == "long-line" and lines:
        # valid, and longer than the smallest chunks
        i = pick()
        lines[i] = b" " * 40 + lines[i].replace(b" ", b" " * 30, 1)
    elif kind == "split" and len(lines) > 1:
        # move the last token of one line to the start of the next
        i = draw(st.integers(0, len(lines) - 2))
        head, _, last = lines[i].rpartition(b" ")
        lines[i], lines[i + 1] = head, last + b" " + lines[i + 1]
    text = b"\n".join([header, *lines])
    return text if kind == "no-final-newline" else text + b"\n"


def load(path):
    try:
        src = StreamSource.from_file(path)
    except ParseError as exc:
        return str(exc)
    return src.n, src.u.tolist(), src.v.tolist(), src.d.tolist()


@pytest.mark.parametrize("kind", MUTATIONS)
@settings(max_examples=30, deadline=None)
@given(
    file=stream_lines(),
    chunk=st.sampled_from([8, 24, 1 << 16]),
    data=st.data(),
)
def test_fast_parse_agrees_with_the_line_parser(kind, file, chunk, data):
    """On valid and mutated files the fast parse gives the line parser's
    arrays or declines, and `from_file` gives the line parser's arrays or
    its `ParseError` text, whatever the chunk size."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.txt"
        path.write_bytes(mutate(data.draw, *file, kind))
        with mock.patch.object(streams, "CHUNK_BYTES", chunk):
            fast = streams._parse_fast(path)
            got = load(path)
        with mock.patch.object(streams, "_parse_fast", return_value=None):
            expected = load(path)
        if fast is not None:
            n, u, v, d = streams._parse_lines(path)
            assert fast[0] == n
            for mine, ref in zip(fast[1:], (u, v, d)):
                assert mine.dtype == np.int64
                assert np.array_equal(mine, ref)
        assert got == expected
        if kind in ("none", "swap", "long-line", "no-final-newline"):
            assert fast is not None


@pytest.mark.parametrize(
    "line, fast",
    [
        (b"0 1 999999999.999999999", True),
        (b"0 1 1000000000", False),
        (b"0 999999999999999999 1", True),
        (b"0 1000000000000000000 1", False),
        (b"0 1 .000000001", True),
        (b"0 1 1.0000000001", False),
    ],
)
def test_fast_parse_digit_limits(tmp_path, line, fast):
    """The widest tokens the fast path takes: 9 whole and 9 fraction digits
    in `d`, 18 digits in `u` and `v`; one digit more goes to the line
    parser."""
    path = tmp_path / "s.txt"
    path.write_bytes(b"2\n" + line + b"\n")
    got = streams._parse_fast(path)
    assert (got is not None) == fast
    if fast:
        n, u, v, d = streams._parse_lines(path)
        assert got[0] == n
        for mine, ref in zip(got[1:], (u, v, d)):
            assert np.array_equal(mine, ref)


def test_written_file_round_trips_through_the_fast_path(tmp_path):
    """`write_file` renders the line-by-line text, and its output, longer
    than one chunk, parses on the fast path to the same arrays."""
    literals = ("0.5", "1.25", "3.000000001", "12.75", "7")
    alphabet = [fp.from_decimal(x) for x in literals]
    src, _ = generate(
        GeneratorSpec(kind="uniform_random", n=140, seed=3, value_alphabet=alphabet)
    )
    path = tmp_path / "s.txt"
    src.write_file(path)
    expected = f"{src.n}\n" + "".join(
        f"{u} {v} {fp.to_decimal(d)}\n"
        for u, v, d in zip(src.u.tolist(), src.v.tolist(), src.d.tolist())
    )
    data = path.read_bytes()
    assert data == expected.encode("ascii")
    assert len(data) > streams.CHUNK_BYTES
    n, u, v, d = streams._parse_fast(path)
    assert n == src.n
    assert np.array_equal(u, src.u)
    assert np.array_equal(v, src.v)
    assert np.array_equal(d, src.d)



def test_fast_parse_peak_memory_is_pinned(tmp_path):
    """Each chunk's digits are folded in place and its columns written
    straight into the arrays the parse returns, so on the seed-4
    `uniform_random` n = 192 file (three chunks) the peak stays within
    1 MiB above the 0.42 MiB returned (it reads about 0.85 MiB)."""
    src, _ = generate(GeneratorSpec(kind="uniform_random", n=192, seed=4))
    path = tmp_path / "s.txt"
    src.write_file(path)
    assert len(path.read_bytes()) > 2 * streams.CHUNK_BYTES
    streams._parse_fast(path)  # warm-up
    tracemalloc.start()
    try:
        n, u, v, d = streams._parse_fast(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(d, src.d)
    assert peak - (u.nbytes + v.nbytes + d.nbytes) < 1 << 20
