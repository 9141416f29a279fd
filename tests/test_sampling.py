"""Seeded streams, the two samplers, sorted samples, CSV I/O."""

import io
import math
import os
import sys
import tempfile
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plevt import (
    CsvFormatError,
    DomainError,
    Params,
    SeedSpec,
    SortedSample,
    cdf,
    mixture_values,
    quantile_from_log_tail,
    read_values_csv,
    sample_inverse_cdf,
    sample_mixture,
    simulate_record,
    write_values_csv,
)
from plevt.cli import _read_input_values
from plevt.distribution import _BLOCK
from plevt.gof import ks_distance_sorted, ks_two_sample
from plevt.harness import _REP_BLOCK
from plevt.quantile import quantile_values
from plevt.records import record_log_tails
from plevt.sampling import (
    _block_rngs,
    _block_seed,
    _read_values_text,
    top_order_statistics_rows,
)

from oracles import (
    ks_distance_sorted_six_arrays,
    ks_two_sample_searchsorted,
    parse_values_lines_loop,
)
from oracles import per_stream_generators as rngs
from test_quantile import _peak_bytes

P = Params(1.0, 2.0)


# ---------------------------------------------------------------------------
# seeding


def test_seed_spec_validation():
    with pytest.raises(DomainError):
        SeedSpec(-1)
    with pytest.raises(DomainError):
        SeedSpec(2**64)
    with pytest.raises(DomainError):
        SeedSpec(1, -3)
    assert SeedSpec(2**64 - 1).master_seed == 2**64 - 1


def test_same_seed_same_sample():
    a = mixture_values(1000, P, SeedSpec(77))
    b = mixture_values(1000, P, SeedSpec(77))
    np.testing.assert_array_equal(a, b)


def test_streams_are_distinct():
    a = mixture_values(1000, P, SeedSpec(77, 0))
    b = mixture_values(1000, P, SeedSpec(77, 1))
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# rngs: the per-stream reference generators of tests/oracles.py, one
# stream per replication, against which the block layout is gated


@pytest.mark.parametrize("master, first", [
    (3, 0),
    (2**64 - 1, 0),
    (0, 2**64 - 4),
    (2**64 - 1, 2**64 - 4),
    (0x9E3779B97F4A7C15, 2**63 - 2),
])
def test_rngs_are_the_one_stream_generators_in_order(master, first):
    # replication i of rngs draws what SeedSpec(master, first + i).rng()
    # draws; seeds and stream ids near 2**64 - 1 check how the key words are
    # packed.  A yielded generator is valid until the next is requested, so
    # each is drawn from inside the loop
    k, n = 7, 100_000
    streams = 0
    for i, rng in enumerate(rngs(SeedSpec(master, first), 4)):
        ref = SeedSpec(master, first + i).rng()
        np.testing.assert_array_equal(rng.random(k + 1), ref.random(k + 1))
        assert rng.standard_gamma(n - k) == ref.standard_gamma(n - k)
        streams += 1
    assert streams == 4
    assert list(rngs(SeedSpec(master, first), 0)) == []


@pytest.mark.parametrize("master", [3, 2**64 - 1])
def test_rngs_reset_keeps_nothing_of_the_stream_before(master):
    # streams 5, then 2, then 5 from separate calls, two streams per call;
    # each generator is left half-used before the next is requested: a
    # spare 32-bit half (has_uint32) and a partly used output buffer
    for first in (5, 2, 5):
        for i, rng in enumerate(rngs(SeedSpec(master, first), 2)):
            ref = SeedSpec(master, first + i).rng()
            np.testing.assert_array_equal(rng.random(8), ref.random(8))
            assert rng.integers(0, 2**32, dtype=np.uint32) == ref.integers(0, 2**32, dtype=np.uint32)
            assert rng.random(1) == ref.random(1)
            state = rng.bit_generator.state
            assert (state["has_uint32"], state["buffer_pos"]) == (1, 2)


def test_rngs_iterators_stepped_alternately_stay_apart():
    # each call owns its generator: stepping one iterator leaves the
    # generator the other one yielded on its own stream
    low = rngs(SeedSpec(9, 0), 3)
    high = rngs(SeedSpec(9, 10), 3)
    for i in range(3):
        a = next(low)
        b = next(high)
        assert a is not b
        ref_a, ref_b = SeedSpec(9, i).rng(), SeedSpec(9, 10 + i).rng()
        np.testing.assert_array_equal(a.random(8), ref_a.random(8))
        np.testing.assert_array_equal(b.random(8), ref_b.random(8))
        assert a.standard_gamma(50) == ref_a.standard_gamma(50)


# ---------------------------------------------------------------------------
# the block layout: a block of replications draws its uniforms as one array
# from counter 0 of its key and its gammas as one array from 2**128 draws on


def _gamma_generator(master, stream):
    """The gamma generator of the block on key (master, stream), spelled out."""
    bits = np.random.Philox(key=master | stream << 64)
    bits.advance(2**128)
    return np.random.Generator(bits)


def test_top_order_statistics_rows_match_the_block_draw():
    # reference: the block draw written out per row; the row form must
    # reproduce it bit for bit, and a one-row draw is row 0 of its key
    n, k, reps = 100_000, 7, 300
    rows = top_order_statistics_rows(n, k, P, SeedSpec(3, 5), reps)
    assert rows.shape == (reps, k + 1)
    u = np.random.Generator(np.random.Philox(key=3 | 5 << 64)).random((reps, k + 1))
    rest = _gamma_generator(3, 5).standard_gamma(n - k, size=reps)
    for r, row in enumerate(rows):
        ur = np.where(u[r] == 0.0, 2.0**-53, u[r])
        partial = np.cumsum(-np.log1p(-ur))
        total = partial[-1] + rest[r]
        ref = np.maximum.accumulate(quantile_values(partial[::-1] / total, P))
        np.testing.assert_array_equal(row, ref)
    np.testing.assert_array_equal(top_order_statistics_rows(n, k, P, SeedSpec(3, 5), 1), rows[:1])


COUNTS = (1, 2, 37, 1000, 2**14 + 3)


@pytest.mark.parametrize("k", [0, 7, 20])
def test_block_row_is_the_same_at_every_count_above_it(k):
    # numpy fills both arrays in order, so the first c rows of a block are
    # the rows of a block of c, at every c; also across the 2**14 of a block
    seed = SeedSpec(2**64 - 1, 2**63)
    rows = top_order_statistics_rows(10_000, k, P, seed, COUNTS[-1])
    tails = record_log_tails(400, seed, COUNTS[-1])
    for count in COUNTS[:-1]:
        np.testing.assert_array_equal(top_order_statistics_rows(10_000, k, P, seed, count),
                                      rows[:count])
        np.testing.assert_array_equal(record_log_tails(400, seed, count), tails[:count])


def test_first_draws_of_ten_thousand_blocks_are_distinct():
    # the blocks of an attempt as the harness places them, one key each: no
    # two share a first uniform or a first gamma (the draws of row 0)
    uniforms, gammas = set(), set()
    for b in range(10_000):
        u, g = _block_rngs(_block_seed(SeedSpec(7), b * _REP_BLOCK), 1)
        uniforms.add(u.random())
        gammas.add(g.standard_gamma(400))
    assert len(uniforms) == len(gammas) == 10_000


@pytest.mark.parametrize("draw", ["rows", "tails"])
def test_block_draws_refuse_a_range_past_2_64(draw):
    # a block of reps takes the streams stream_id .. stream_id + reps - 1
    call = {"rows": lambda seed, reps: top_order_statistics_rows(100, 2, P, seed, reps),
            "tails": lambda seed, reps: record_log_tails(40, seed, reps)}[draw]
    seed = SeedSpec(5, 2**64 - 3)
    assert len(call(seed, 3)) == 3  # the last stream id, 2**64 - 1, is valid
    with pytest.raises(DomainError, match="pass 2\\*\\*64 - 1"):
        call(seed, 4)
    with pytest.raises(DomainError, match="reps must be >= 0"):
        call(seed, -1)
    assert len(call(SeedSpec(5), 0)) == 0


def test_replicated_draws_build_one_philox(monkeypatch):
    # one keyed Philox per block, whatever its count; the gamma generator is
    # its jumped copy, which numpy builds without a key
    built = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(kwargs)
        return philox(*args, **kwargs)

    expected_rows = top_order_statistics_rows(1000, 7, P, SeedSpec(5), 50)
    expected_tails = record_log_tails(400, SeedSpec(5), 50)
    monkeypatch.setattr(np.random, "Philox", counting_philox)
    np.testing.assert_array_equal(top_order_statistics_rows(1000, 7, P, SeedSpec(5), 50), expected_rows)
    assert len(built) == 1
    np.testing.assert_array_equal(record_log_tails(400, SeedSpec(5), 50), expected_tails)
    assert len(built) == 2


def test_simulate_record_builds_no_philox_after_a_threads_first_call(monkeypatch):
    built = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(kwargs)
        return philox(*args, **kwargs)

    def run():
        simulate_record(400, P, SeedSpec(5))
        counts.append(len(built))
        for stream in range(1000):
            simulate_record(400, P, SeedSpec(5, stream))
        counts.append(len(built))

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    counts = []
    thread = threading.Thread(target=run)  # a new thread has no generator yet
    thread.start()
    thread.join(timeout=60.0)
    assert not thread.is_alive() and counts == [1, 1]


def test_simulate_record_between_block_draws_moves_neither():
    # the thread's record generator and a block's two generators share
    # nothing, so records drawn between blocks change no block's bits
    alone = [record_log_tails(400, SeedSpec(9, b), 3) for b in range(3)]
    got = []
    for b in range(3):
        got.append(record_log_tails(400, SeedSpec(9, b), 3))
        record = simulate_record(400, P, SeedSpec(9, b))
        assert record == quantile_from_log_tail(SeedSpec(9, b).rng().standard_gamma(400), P).value
    np.testing.assert_array_equal(got, alone)


NOT_INTEGERS = [7.9, "200", True, math.inf, math.nan]


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("name", ["n", "k", "reps"])
def test_row_sampler_refuses_non_integer_counts(name, value):
    counts = {"n": 100, "k": 2, "reps": 3}
    with pytest.raises(DomainError, match=f"must be an integer, got {value!r}"):
        top_order_statistics_rows(p=P, seed=SeedSpec(1), **{**counts, name: value})
    counts[name] = np.int64(counts[name])
    assert top_order_statistics_rows(p=P, seed=SeedSpec(1), **counts).shape == (3, 3)


def test_different_masters_differ():
    a = mixture_values(100, P, SeedSpec(1))
    b = mixture_values(100, P, SeedSpec(2))
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# samplers


def test_mixture_sample_is_sorted_and_positive():
    s = sample_mixture(5000, P, SeedSpec(3))
    assert s.n == 5000
    assert np.all(np.diff(s.values) >= 0.0)
    assert np.all(s.values >= 0.0)


def test_mixture_passes_ks_against_cdf():
    n = 20_000
    s = sample_mixture(n, P, SeedSpec(11))
    d = ks_distance_sorted(s.values, cdf(s.values, P))
    assert d <= 1.95 / math.sqrt(n)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ks_distance_sorted_equals_the_six_array_formula(seed):
    # the sampler_gof pair: 1e5 mixture values and their cdf; then the same
    # values cut to quarters, so that runs of ties share one cdf value.  The
    # cdf of a faster and a slower law make D- and D+ the larger one
    values = sample_mixture(100_000, P, SeedSpec(seed)).values
    tied = np.floor(values * 4.0) / 4.0
    for v in (values, tied, values[:3], tied[:1]):
        for law in (P, Params(1.1, 2.0), Params(0.9, 2.0)):
            c = cdf(v, law)
            assert ks_distance_sorted(v, c) == ks_distance_sorted_six_arrays(v, c)


def test_ks_distance_sorted_memory_is_bounded():
    # on the sampler_gof pair the formula with a fresh array for each
    # intermediate peaked at 3.00x the bytes of the cdf values; D+ and D-
    # computed in two arrays, 2.00x
    values = sample_mixture(100_000, P, SeedSpec(1)).values
    c = cdf(values, P)
    assert _peak_bytes(lambda: ks_distance_sorted(values, c)) <= 2.25 * c.nbytes


def test_mixture_mean_near_m1():
    # m1 = 1.5 at (1, 2); 20k draws put the MC error near 0.01
    s = sample_mixture(20_000, P, SeedSpec(19))
    assert float(np.mean(s.values)) == pytest.approx(1.5, abs=0.05)


def test_inverse_cdf_agrees_with_mixture():
    n = 20_000
    a = sample_mixture(n, P, SeedSpec(5, 0))
    b = sample_inverse_cdf(n, P, SeedSpec(5, 1))
    d = ks_two_sample(a.values, b.values)
    assert d <= 1.95 * math.sqrt(2.0 / n)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_ks_two_sample_equals_the_searchsorted_formula(seed):
    # the harness's sampler_gof pair: two sorted samples of 1e5
    a = sample_mixture(100_000, P, SeedSpec(seed, 0)).values
    b = sample_inverse_cdf(100_000, P, SeedSpec(seed, 1)).values
    assert ks_two_sample(a, b) == ks_two_sample_searchsorted(a, b)


_TIED = st.lists(
    st.one_of(st.integers(-3, 20).map(float), st.sampled_from([-0.0, 0.0, 5e-324])),
    min_size=1, max_size=50,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(x=_TIED, y=_TIED)
def test_ks_two_sample_equals_the_searchsorted_formula_with_ties(x, y):
    # unsorted input, repeated values within and across the samples
    assert ks_two_sample(x, y) == ks_two_sample_searchsorted(x, y)


@pytest.mark.parametrize("pooled", [m * _BLOCK + d for m in (1, 2, 3) for d in (-1, 0, 1)])
def test_ks_two_sample_equals_the_searchsorted_formula_across_block_seams(pooled):
    # the merged order is reduced in blocks of _BLOCK points; with seven
    # distinct values a run of ties crosses the first seam, so a block's
    # last run ends in the next block
    rng = np.random.default_rng(pooled)
    nx = pooled // 3
    x = rng.integers(0, 7, nx).astype(np.float64)
    y = rng.integers(0, 7, pooled - nx).astype(np.float64)
    merged = np.sort(np.concatenate([x, y]))
    assert pooled <= _BLOCK or merged[_BLOCK - 1] == merged[_BLOCK]
    want = ks_two_sample_searchsorted(x, y)
    assert ks_two_sample(x, y) == want
    assert ks_two_sample(np.sort(x), np.sort(y)) == want  # ascending: not sorted again
    assert ks_two_sample(y, x) == want
    one_value = np.full(nx, 3.0)  # a sample that is one run of ties
    assert ks_two_sample(one_value, y) == ks_two_sample_searchsorted(one_value, y)
    assert ks_two_sample(one_value, np.full(pooled - nx, 3.0)) == 0.0
    # distinct values, but for one run of ties across the first seam
    u = np.sort(rng.uniform(0.0, 1.0, pooled))
    u[_BLOCK - 3:_BLOCK + 3] = u[_BLOCK - 3]
    x, y = u[::2], u[1::2]
    assert ks_two_sample(x, y) == ks_two_sample_searchsorted(x, y)


def test_ks_two_sample_reads_its_inputs_and_never_writes_them():
    # an ascending sample goes to the merge as the caller's own array
    a = sample_mixture(50_000, P, SeedSpec(6, 0)).values
    b = sample_inverse_cdf(40_000, P, SeedSpec(6, 1)).values
    shuffled = np.random.default_rng(6).permutation(b)
    for arr in (a, b, shuffled):
        arr.setflags(write=False)
    before = [arr.tobytes() for arr in (a, b, shuffled)]
    want = ks_two_sample_searchsorted(a, b)
    assert ks_two_sample(a, b) == want
    assert ks_two_sample(a, shuffled) == want
    assert [arr.tobytes() for arr in (a, b, shuffled)] == before


def test_ks_two_sample_memory_is_bounded():
    # the sampler_gof pair of 2x1e5 ascending values: merging and reducing
    # whole-size arrays peaked at 12.46 MiB; reduced in blocks, 3.96 MiB,
    # of which the pooled values and their merged order are 3.05
    a = sample_mixture(100_000, P, SeedSpec(1, 0)).values
    b = sample_inverse_cdf(100_000, P, SeedSpec(1, 1)).values
    assert _peak_bytes(lambda: ks_two_sample(a, b)) <= 5 * 2**20


@pytest.mark.parametrize("x, y", [([], [1.0]), ([1.0], []), ([], [])])
def test_ks_two_sample_refuses_an_empty_sample(x, y):
    with pytest.raises(DomainError, match="non-empty"):
        ks_two_sample(x, y)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("x, y", [
    ([1.0, _NAN], [1.0, _NAN]), ([_NAN], [_NAN]), ([1.0], [2.0, _NAN]),
    ([_INF, 1.0], [1.0]), ([1.0], [-_INF, 2.0]), ([_INF], [_INF]),
])
def test_ks_two_sample_refuses_a_non_finite_value(x, y):
    with pytest.raises(DomainError, match="finite"):
        ks_two_sample(x, y)


def test_inverse_cdf_sample_is_quantile():
    # sample_inverse_cdf maps the seed's uniforms through the quantile
    from plevt import quantile_exact

    n, seed = 5, SeedSpec(3, 2)
    us = seed.rng().random(n)
    expected = sorted(quantile_exact(float(u), P).value for u in us)
    np.testing.assert_allclose(sample_inverse_cdf(n, P, seed).values, expected, rtol=1e-13)


def test_sample_size_validation():
    with pytest.raises(DomainError):
        mixture_values(0, P, SeedSpec(1))
    with pytest.raises(DomainError):
        sample_inverse_cdf(-5, P, SeedSpec(1))


def test_theta_beta_shape_effect():
    # larger theta compresses the sample; same seed keeps the comparison fair
    heavy = mixture_values(5000, Params(0.5, 2.0), SeedSpec(8))
    light = mixture_values(5000, Params(4.0, 2.0), SeedSpec(8))
    assert np.mean(heavy) > np.mean(light)


# ---------------------------------------------------------------------------
# SortedSample


def test_sorted_sample_rejects_unsorted():
    with pytest.raises(DomainError):
        SortedSample(np.array([2.0, 1.0]))


def test_sorted_sample_rejects_nonfinite_and_empty():
    with pytest.raises(DomainError):
        SortedSample(np.array([1.0, math.nan]))
    with pytest.raises(DomainError):
        SortedSample(np.array([]))
    with pytest.raises(DomainError):
        SortedSample(np.ones((2, 2)))


# ---------------------------------------------------------------------------
# CSV I/O


def test_csv_round_trip(tmp_path):
    path = tmp_path / "values.csv"
    values = mixture_values(200, P, SeedSpec(21))
    with open(path, "w", encoding="utf-8") as fh:
        write_values_csv(values, fh)
    back = read_values_csv(str(path))
    np.testing.assert_array_equal(values, back)  # repr round-trips exactly


def test_csv_write_refuses_a_nonfinite_value():
    with pytest.raises(DomainError, match="^sample values must all be finite$"):
        write_values_csv(np.array([1.0, np.inf]), io.StringIO())


def test_csv_header_detected(tmp_path):
    path = tmp_path / "with_header.csv"
    path.write_text("value\n1.5\n2.5\n")
    np.testing.assert_array_equal(read_values_csv(str(path)), [1.5, 2.5])


def test_csv_bad_line_reports_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0\n2.0\noops\n4.0\n")
    with pytest.raises(CsvFormatError) as exc_info:
        read_values_csv(str(path))
    assert exc_info.value.line_no == 3
    assert "oops" in str(exc_info.value)


def test_csv_rejects_nonfinite(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("1.0\ninf\n")
    with pytest.raises(CsvFormatError):
        read_values_csv(str(path))


def test_csv_empty_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(CsvFormatError):
        read_values_csv(str(path))


def _read_text(text, label="<stream>"):
    """The values of ``text`` as the reader turns a stream's into values."""
    return _read_values_text(io.StringIO(text), label)


def test_parse_lines_label_in_error():
    with pytest.raises(CsvFormatError) as exc_info:
        _read_text("1.0\nnope", label="<stdin>")
    assert "<stdin>" in str(exc_info.value)


def test_parse_lines_strips_byte_order_mark():
    # a UTF-8 BOM must not turn the first value into a skipped header
    np.testing.assert_array_equal(_read_text("\ufeff1.5\n2"), [1.5, 2.0])
    np.testing.assert_array_equal(_read_text("\ufeffvalue\n2"), [2.0])
    with pytest.raises(CsvFormatError) as exc_info:
        _read_text("\ufeff1.0\noops", label="bom.csv")
    assert exc_info.value.line_no == 2


def test_csv_file_with_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_text("\ufeff1.5\n2.5\n", encoding="utf-8")
    np.testing.assert_array_equal(read_values_csv(str(path)), [1.5, 2.5])


# property tests of the CSV contract: what parses, and which line an error names

_PAD = st.text(alphabet=" \t", max_size=2)
_NUMBER = st.builds(
    lambda v, fmt: fmt.format(v),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["{!r}", "{:.6e}", "{:g}"]),
)


def _csv_text(lines, crlf, bom):
    end = "\r\n" if crlf else "\n"
    return ("\ufeff" if bom else "") + "".join(line + end for line in lines)


def _read_stdin(data: bytes):
    """The values the CLI reads from a stdin that holds ``data``."""
    with mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(data))):
        return _read_input_values(None)


def _readers(text, directory):
    # stdin is read as a file is: the same UTF-8 bytes, with universal newlines
    path = os.path.join(directory, "prop.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return [
        (path, lambda: read_values_csv(path)),
        ("<stdin>", lambda: _read_stdin(text.encode("utf-8"))),
    ]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    rows=st.lists(st.tuples(_PAD, _NUMBER, _PAD), min_size=1, max_size=6),
    header=st.booleans(),
    crlf=st.booleans(),
    bom=st.booleans(),
)
def test_csv_values_parse_as_float_does(rows, header, crlf, bom):
    lines = (["value"] if header else []) + [a + num + b for a, num, b in rows]
    expected = [float(num).hex() for _, num, _ in rows]
    with tempfile.TemporaryDirectory() as directory:
        for label, read in _readers(_csv_text(lines, crlf, bom), directory):
            assert [v.hex() for v in read().tolist()] == expected, label


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    head=st.lists(_NUMBER, min_size=1, max_size=4),
    pad=_PAD,
    bad=st.sampled_from(["inf", "-inf", "nan", "Infinity", "NaN", "", "1.0 2.0", "x"]),
    tail=st.lists(st.sampled_from(["2.5", "oops", "", "nan"]), max_size=3),
    header=st.booleans(),
    crlf=st.booleans(),
    bom=st.booleans(),
)
def test_csv_error_names_the_first_bad_line(head, pad, bad, tail, header, crlf, bom):
    # inf and nan are refused like a non-number, and a blank line after
    # line 1 is an error at that line, the last line included
    lines = (["value"] if header else []) + head + [pad + bad + pad] + tail
    line_no = len(lines) - len(tail)
    with tempfile.TemporaryDirectory() as directory:
        for label, read in _readers(_csv_text(lines, crlf, bom), directory):
            with pytest.raises(CsvFormatError) as exc_info:
                read()
            assert exc_info.value.line_no == line_no, label
            assert str(exc_info.value).startswith(f"{label}:{line_no}:")


def test_csv_blank_and_nonfinite_lines_pinned():
    with pytest.raises(CsvFormatError, match=r"^s\.csv:3:"):
        _read_text("1.0\n2.0\n\n", label="s.csv")
    # a non-finite first line is a bad value, not a header
    for first in ("inf", "-inf", " nan\r"):
        with pytest.raises(CsvFormatError, match=r"^s\.csv:1:"):
            _read_text(first + "\n1.0", label="s.csv")


@pytest.mark.parametrize("text, expected", [
    ("", 1), ("\n", 1), ("\ufeff", 1), ("value\n", 1), ("\ufeffvalue\n", 1), ("value", 1),
    ("value\n\n", 2), ("value\n1\n\n", 3),
    ("1.5", [1.5]), ("\ufeff1.5\r\n2\r\n", [1.5, 2.0]),
])
def test_csv_edge_inputs_pinned(tmp_path, text, expected):
    # an error's line, or the values, of a file and of stdin alike
    for label, read in _readers(text, tmp_path):
        if isinstance(expected, list):
            assert read().tolist() == expected, label
            continue
        with pytest.raises(CsvFormatError) as exc_info:
            read()
        assert str(exc_info.value).startswith(f"{label}:{expected}:")


def _parsed(parse, source):
    try:
        return parse(source, label="p.csv").view(np.uint64).tolist()
    except CsvFormatError as exc:
        return exc.line_no, str(exc)


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.tuples(_PAD, _NUMBER | st.sampled_from(["1_0", "2_500.25", "-3_0e-1_0"]), _PAD),
        max_size=8,
    ),
    bad=st.lists(
        st.tuples(
            st.integers(0, 8),
            st.sampled_from(["", "inf", "-inf", "nan", "1e400", "1__0", "_1", "1.0 2.0", "x"]),
        ),
        max_size=2,
    ),
    header=st.booleans(),
    crlf=st.booleans(),
    bom=st.booleans(),
)
def test_csv_bulk_read_matches_the_line_loop(rows, bad, header, crlf, bom):
    # the one-pass read returns what float() gives for each body line, and
    # refuses what the line-by-line reference refuses, at the same line
    lines = [a + num + b for a, num, b in rows]
    for pos, line in bad:
        lines.insert(min(pos, len(lines)), line)
    text = _csv_text((["value"] if header else []) + lines, crlf, bom)
    lines = text.split("\n")
    parsed = _parsed(_read_text, text)
    assert parsed == _parsed(parse_values_lines_loop, lines)
    if isinstance(parsed, list):
        seen = lines[:-1]
        seen[0] = seen[0][1:] if bom else seen[0]
        body = seen if _is_number(seen[0]) else seen[1:]
        assert parsed == np.array([float(line) for line in body]).view(np.uint64).tolist()


def test_unsorted_file_reads_in_file_order(tmp_path):
    # reading keeps the file's order; a SortedSample takes the values sorted
    path = tmp_path / "unsorted.csv"
    path.write_text("3.0\n1.0\n2.0\n")
    values = read_values_csv(str(path))
    np.testing.assert_array_equal(values, [3.0, 1.0, 2.0])
    with pytest.raises(DomainError, match="nondecreasing"):
        SortedSample(values)
    np.testing.assert_array_equal(SortedSample(np.sort(values)).values, [1.0, 2.0, 3.0])
