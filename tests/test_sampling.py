"""Seeded streams, the two samplers, sorted samples, CSV I/O."""

import decimal
import hashlib
import io
import math
import os
import re
import subprocess
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
from plevt import csv_codec, sampling
from plevt.cli import _read_input_values
from plevt.cli import main as cli_main
from plevt.distribution import _BLOCK
from plevt.gof import ks_distance_sorted, ks_two_sample
from plevt.harness import _REP_BLOCK
from plevt.quantile import quantile_values
from plevt.records import record_log_tails
from plevt.sampling import (
    _CSV_BLOCK,
    _block_rngs,
    _block_seed,
    _read_values_bytes,
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
    # D- alone the largest, at an index i where (i-1)/n and (i-1)*(1/n) differ
    # in the last bit: the cdf sits at the ecdf's step midpoints, 0.4/n higher
    # at i.  c - (i-1)/n is then exact (c is within a factor 2 of (i-1)/n)
    n = values.size
    steps = np.arange(n, dtype=np.float64)
    i = np.flatnonzero(steps / n != steps * (1.0 / n))[seed * 1000]
    c = (steps + 0.5) / n
    c[i] += 0.4 / n
    assert ks_distance_sorted(values, c) == ks_distance_sorted_six_arrays(values, c)


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
    """The values of ``text``'s UTF-8 bytes, as the reader reads a file's or stdin's."""
    return _read_values_bytes(text.encode(), label)


def _newlines(text):
    """``text`` with ``\\r\\n`` and a lone ``\\r`` read as ``\\n``, as the reader reads them."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


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
    # a lone \r ends a line as \r\n and \n do, after a byte order mark too
    ("1.5\r2.5\r", [1.5, 2.5]), ("1.5\r\n2.5\r3.5\n4.5", [1.5, 2.5, 3.5, 4.5]),
    ("1.5\n2.5\r\n\r3.5", 3), ("1.5\r\r\n2.5", 2), ("value\r\r", 2),
    ("\ufeff\r", 1), ("\ufeff\r1.5\n", [1.5]), ("\ufeff\r\n2.5\r", [2.5]),
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
    lines = _newlines(text).split("\n")
    parsed = _parsed(_read_text, text)
    assert parsed == _parsed(parse_values_lines_loop, lines)
    if isinstance(parsed, list):
        seen = lines[:-1]
        seen[0] = seen[0][1:] if bom else seen[0]
        body = seen if _is_number(seen[0]) else seen[1:]
        assert parsed == np.array([float(line) for line in body]).view(np.uint64).tolist()


# the plain decimal lines that convert in numpy blocks, and the lines left to float()


def _plain(line):
    """Whether the reader converts ``line`` in its array path: ``-?D*.D+``, at most 24
    bytes after the sign, whose bytes with the '.' read as 0 form an integer below 10**19."""
    body = line.removeprefix("-")
    return (re.fullmatch(r"[0-9]*\.[0-9]+", body) is not None and len(body) <= 24
            and int(body.replace(".", "0")) < 10**19)


def _read_counting_float(read):
    """``read()``, and the lines it handed to float() one at a time."""
    seen = []

    def counted(line):
        seen.append(line)
        return float_or_none(line)

    float_or_none = sampling._float_or_none
    with mock.patch.object(sampling, "_float_or_none", counted):
        return read(), seen


def _halfway_lines(rng):
    """Decimal strings of points halfway between adjacent doubles: exact ones with
    1-4 digits after the '.', and at random doubles, the exact midpoint and the
    midpoint cut to 18 digits."""
    lines = ["9007199254740993.0", "9007199254740995.0", "-9007199254740993.0"]
    with decimal.localcontext(decimal.Context(prec=120)):
        for fd in range(5):  # doubles in [2**(53-fd), 2**(54-fd)) are 2**(1-fd) apart
            for x in np.ldexp(rng.random(200) + 1.0, 53 - fd).tolist():
                lines.append(f"{decimal.Decimal(x) + decimal.Decimal(2) ** -fd:.{max(fd, 1)}f}")
        for x in (10.0 ** rng.uniform(-4.0, 16.0, 500)).tolist():
            mid = f"{(decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, math.inf))) / 2:f}"
            lines += [mid, mid[:19]]
    return lines


def _digit_strings(rng, count):
    """Random ``-?D*.D+`` strings of 1-25 random digits, some after up to 9 zeros."""
    lines = []
    for digits, dot, sign, zeros in zip(rng.integers(1, 26, count), rng.random(count),
                                        rng.random(count) < 0.5, rng.integers(0, 60, count)):
        text = "0" * max(zeros - 50, 0) + "".join(map(str, rng.integers(0, 10, digits)))
        at = int(dot * len(text))
        lines.append("-" * int(sign) + text[:at] + "." + text[at:])
    return lines


#: plain decimal lines at their limits, zeros, and forms float() takes that the array path leaves
_DECIMAL_EDGES = [
    "0.0", "-0.0", ".5", "-.5", "00.000", "000123.4500", "-0000.0001", "0.00012345678901234568",
    "." + "0" * 4 + "9" * 19, "-." + "0" * 4 + "9" * 19, "." + "0" * 5 + "9" * 19,
    "." + "9" * 23, "9" * 18 + ".0", "99999999999999999.9", "9999999999999999999.9",
    "100000000000000000.0", "1" + "0" * 18 + ".0", "0." + "0" * 22,
    "1.", "5", "+1.5", " 1.5", "1.5 ", "1_0.5", "1e5", "-1E-5", "١.٥", "1.5\r",
]


def _decimal_corpus():
    rng = np.random.default_rng(44)
    # four doubles from every binade, subnormals included, of either sign
    exponents = np.repeat(np.arange(-1074, 1024), 4)
    doubles = np.ldexp(rng.random(exponents.size) + 1.0, exponents)
    doubles[rng.random(doubles.size) < 0.5] *= -1.0
    # and more in the range repr writes in plain decimals
    plain = np.ldexp(rng.random(20_000) + 1.0, rng.integers(-14, 54, 20_000))
    return ([repr(x) for x in doubles.tolist() + plain.tolist()] + _halfway_lines(rng)
            + _digit_strings(rng, 20_000) + _DECIMAL_EDGES)


def test_plain_decimal_lines_read_as_float_does():
    lines = _decimal_corpus()
    text = "\n".join(lines) + "\n"
    parsed, seen = _read_counting_float(lambda: _parsed(_read_text, text))
    assert parsed == _parsed(parse_values_lines_loop, text.split("\n"))
    # every plain decimal line took the array path, and most lines are plain
    assert seen == [line for line in _newlines(text).split("\n")[:-1] if not _plain(line)]
    assert len(seen) < len(lines) / 2


@pytest.mark.parametrize("bad", ["1.2.3", "-", ".", "-.", "--1.0", "1.-5", "1.5-", "-1..5",
                                 "1.5\x00", "1:5", "1/5", "1.5" + "5" * 30, "", "nan", "-inf"])
@pytest.mark.parametrize("at", [0, 1, 3])
def test_plain_decimal_near_misses_are_errors_at_their_line(bad, at):
    lines = ["12.5", "-0.25", "3.0", "100.125"]
    lines.insert(at, bad)
    text = "\n".join(lines) + "\n"
    assert _parsed(_read_text, text) == _parsed(parse_values_lines_loop, text.split("\n"))


def test_plain_decimal_path_reads_a_written_sample(tmp_path):
    # of a written draw, only the lines repr writes with an exponent are written
    # by repr and read by float(); a line that ends in \r\n is as plain as one
    # that ends in \n
    values = mixture_values(100_000, P, SeedSpec(3))
    exponent_form = [repr(v) for v in values.tolist() if "e" in repr(v)]
    path = tmp_path / "draw.csv"
    for newline in ("\n", "\r\n"):
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            written = _counting_repr(lambda: write_values_csv(values, fh))
        back, seen = _read_counting_float(lambda: read_values_csv(str(path)))
        assert back.tobytes() == values.tobytes()
        assert seen == exponent_form, repr(newline)
        assert list(map(repr, written)) == exponent_form


@pytest.mark.parametrize("size", [m * _BLOCK + d for m in (1, 2) for d in (-1, 0, 1)])
def test_plain_decimal_blocks_join_cleanly(size):
    # lines convert _BLOCK at a time; a block finds its first line's start in
    # the text, so a line on either side of a seam must read, and fail, as alone
    rng = np.random.default_rng(size)
    values = mixture_values(size, P, SeedSpec(size))
    values[rng.random(size) < 0.5] *= -1.0
    lines = [repr(v) for v in values.tolist()]
    lines[::7] = [line[:rng.integers(1, len(line) + 1)] for line in lines[::7]]
    cases = [lines]
    for seam in range(_BLOCK, size + 1, _BLOCK):
        for at in (seam - 1, seam):
            if at < size:
                cases.append(lines[:at] + ["x.5"] + lines[at + 1:])
    for case in cases:
        text = "\n".join(case)
        assert _parsed(_read_text, text) == _parsed(parse_values_lines_loop, text.split("\n"))


def test_csv_read_memory_is_bounded(tmp_path):
    # the read of a plevt sample file peaked at 5.46x the file's bytes while
    # each line was a str of its own; as one buffer of UTF-8 bytes, 2.5x
    path = tmp_path / "draw.csv"
    assert cli_main(["sample", "-n", "200000", "--seed", "7", "-o", str(path)]) == 0
    assert _peak_bytes(lambda: read_values_csv(str(path))) <= 3.0 * path.stat().st_size


def test_csv_read_does_not_depend_on_simd_dispatch(tmp_path):
    # numpy's AVX2 kernels move the last bit of log and exp (ROADMAP item 27);
    # the array path is integer arithmetic and exact conversions, so a child
    # process that cannot use AVX-512 reads the same bits
    path = tmp_path / "corpus.csv"
    values = mixture_values(20_000, P, SeedSpec(5))
    lines = [repr(v) for v in values.tolist()] + [line for line in _decimal_corpus() if _plain(line)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    probe = ("import hashlib, sys\nfrom plevt import read_values_csv\n"
             "print(hashlib.sha256(read_values_csv(sys.argv[1]).tobytes()).hexdigest())")
    src = os.path.dirname(os.path.dirname(sampling.__file__))
    proc = subprocess.run([sys.executable, "-c", probe, str(path)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src,
                                   NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == hashlib.sha256(read_values_csv(str(path)).tobytes()).hexdigest()


# the plain decimal lines the writer lays out in numpy blocks, and the values left to repr


def _repr_join(values):
    return "".join(repr(v) + "\n" for v in values.tolist())


def _counting_repr(write):
    """The values that ``write()`` handed to repr one at a time."""
    seen = []

    def counted(value):
        seen.append(value)
        return repr(value)

    with mock.patch.object(csv_codec, "repr", counted, create=True):
        write()
    return seen


def _written(values):
    """What write_values_csv writes for ``values``, and the values it left to repr."""
    fh = io.StringIO()
    seen = _counting_repr(lambda: write_values_csv(values, fh))
    return fh.getvalue(), seen


def _plain_binades(rng, per_binade):
    """``per_binade`` doubles of either sign from each binade that holds plain
    decimal reprs, 2**-14 to 2**54, and from two binades on either side."""
    exponents = np.repeat(np.arange(-16, 56), per_binade)
    values = np.ldexp(rng.random(exponents.size) + 1.0, exponents)
    values[rng.random(values.size) < 0.5] *= -1.0
    return values


def _random_doubles(rng, count):
    """The finite doubles among ``count`` random bit patterns."""
    values = rng.integers(0, 2**64, count, dtype=np.uint64).view(np.float64)
    return values[np.isfinite(values)]


def test_csv_write_matches_repr_in_every_plain_binade():
    # integers end in ".0", and so do the zeros
    rng = np.random.default_rng(46)
    integers = np.concatenate([np.arange(-1000.0, 1001.0), 10.0 ** np.arange(16),
                               [2.0**53 - 1, 2.0**53, 2.0**53 + 2, 123456789012345.0]])
    values = np.concatenate([_plain_binades(rng, 200), [0.0, -0.0], integers, -integers])
    text, seen = _written(values)
    assert text == _repr_join(values)
    assert seen == [v for v in values.tolist() if "e" in repr(v)]
    assert len(seen) < values.size / 10


def test_csv_write_matches_repr_at_powers_of_two_and_ties():
    # at a power of two the rounding interval reaches half as far below as above;
    # x = c/4 with odd c in [2**52, 2**53) lies halfway between its two shortest
    # candidates, one digit after the point, and repr takes the even one
    rng = np.random.default_rng(47)
    powers = np.ldexp(1.0, np.arange(-20, 60))
    neighbours = np.concatenate([np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    ties = np.ldexp((rng.integers(2**51, 2**52, 2000) * 2 + 1).astype(np.float64), -2)
    assert {repr(v)[-2:] for v in ties.tolist()} == {".2", ".8"}
    values = np.concatenate([powers, neighbours, ties])
    values = np.concatenate([values, -values])
    assert _written(values)[0] == _repr_join(values)


def test_csv_write_form_follows_the_shortest_digits():
    # repr writes an exponent when its shortest digits put the point 4 or more
    # places before the first digit, or past the 16th: not by x against 1e-4 or 1e16
    plain = [0.0001, 0.00010000000000000002, 9999999999999998.0, 9999999999999996.0]
    exponent_form = [9.999999999999999e-05, 9.999999999999998e-05, 1e16, 1.0000000000000002e16]
    values = np.array(plain + exponent_form)
    values = np.concatenate([values, -values])
    text, seen = _written(values)
    assert text == _repr_join(values)
    assert seen == [v for v in values.tolist() if abs(v) in exponent_form]


def test_csv_write_matches_repr_on_random_bit_patterns():
    values = _random_doubles(np.random.default_rng(48), 100_000)
    assert _written(values)[0] == _repr_join(values)


@pytest.mark.parametrize("size", [m * _CSV_BLOCK + d for m in (1, 2) for d in (-1, 0, 1)])
def test_csv_write_blocks_join_cleanly(size):
    # values are written _CSV_BLOCK at a time; a value that goes to repr, on
    # either side of a seam, keeps its place
    rng = np.random.default_rng(size)
    values = mixture_values(size, P, SeedSpec(size))
    values[rng.random(size) < 0.5] *= -1.0
    for seam in range(_CSV_BLOCK, size + 1, _CSV_BLOCK):
        values[seam - 1:seam + 1] = 1e-300
    values[::97] *= 1e20
    assert _written(values)[0] == _repr_join(values)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
def test_csv_write_is_the_repr_join(xs):
    values = np.array(xs)
    assert _written(values)[0] == _repr_join(values)


def test_csv_write_memory_is_bounded():
    # each block's lines are built and written before the next block's, so the
    # traced peak is the same multiple of one block's bytes at any sample size:
    # 23.3 blocks at 2e5 and 8e5 values
    values = mixture_values(800_000, P, SeedSpec(9))
    block = 8 * _CSV_BLOCK
    with open(os.devnull, "w", encoding="utf-8") as fh:
        peaks = [_peak_bytes(lambda: write_values_csv(values[:n], fh)) for n in (200_000, 800_000)]
    assert peaks[1] - peaks[0] <= block // 4
    assert peaks[0] <= 28 * block


def test_csv_write_does_not_depend_on_simd_dispatch(tmp_path):
    # the writer is integer arithmetic on the values' bits, so a child process
    # that cannot use AVX-512 writes the same bytes; it writes stored values,
    # since a draw moves with numpy's AVX2 log1p (ROADMAP item 27)
    rng = np.random.default_rng(6)
    values = np.concatenate([mixture_values(20_000, P, SeedSpec(6)), _plain_binades(rng, 100),
                             _random_doubles(rng, 2_000)])
    path = tmp_path / "values.npy"
    np.save(path, values)
    probe = ("import hashlib, io, sys\nimport numpy as np\nfrom plevt import write_values_csv\n"
             "fh = io.StringIO()\nwrite_values_csv(np.load(sys.argv[1]), fh)\n"
             "print(hashlib.sha256(fh.getvalue().encode()).hexdigest())")
    src = os.path.dirname(os.path.dirname(sampling.__file__))
    proc = subprocess.run([sys.executable, "-c", probe, str(path)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src,
                                   NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == hashlib.sha256(_repr_join(values).encode()).hexdigest()
    assert _written(values)[0] == _repr_join(values)


def test_unsorted_file_reads_in_file_order(tmp_path):
    # reading keeps the file's order; a SortedSample takes the values sorted
    path = tmp_path / "unsorted.csv"
    path.write_text("3.0\n1.0\n2.0\n")
    values = read_values_csv(str(path))
    np.testing.assert_array_equal(values, [3.0, 1.0, 2.0])
    with pytest.raises(DomainError, match="nondecreasing"):
        SortedSample(values)
    np.testing.assert_array_equal(SortedSample(np.sort(values)).values, [1.0, 2.0, 3.0])
