"""Seeded streams, the two samplers, spacings, CSV I/O."""

import io
import math
import os
import tempfile

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
    read_values_csv,
    sample_inverse_cdf,
    sample_mixture,
    spacings,
    write_values_csv,
)
from plevt.gof import ks_distance_sorted, ks_two_sample
from plevt.quantile import quantile_values
from plevt.sampling import (
    parse_values_lines,
    top_order_statistics,
    top_order_statistics_rows,
)

from oracles import parse_values_lines_loop

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
    *_, fifth = SeedSpec(77).rngs(6)
    np.testing.assert_array_equal(fifth.random(8), SeedSpec(77, 5).rng().random(8))


@pytest.mark.parametrize("master, first", [
    (3, 0),
    (2**64 - 1, 0),
    (0, 2**64 - 4),
    (2**64 - 1, 2**64 - 4),
    (0x9E3779B97F4A7C15, 2**63 - 2),
])
def test_rngs_are_the_one_stream_generators_in_order(master, first):
    # replication i of rngs draws what SeedSpec(master, first + i).rng() draws;
    # seeds and stream ids near 2**64 - 1 check how the key words are packed
    k, n = 7, 100_000
    gens = list(SeedSpec(master, first).rngs(4))
    assert len(gens) == 4
    for i, rng in enumerate(gens):
        ref = SeedSpec(master, first + i).rng()
        np.testing.assert_array_equal(rng.random(k + 1), ref.random(k + 1))
        assert rng.standard_gamma(n - k) == ref.standard_gamma(n - k)
    assert list(SeedSpec(master, first).rngs(0)) == []


def test_rngs_refuse_a_range_past_2_64_on_the_call():
    seed = SeedSpec(5, 2**64 - 3)
    assert len(list(seed.rngs(3))) == 3  # the last stream id, 2**64 - 1, is valid
    # the refusal comes from the call itself, not from the first next()
    with pytest.raises(DomainError, match="pass 2\\*\\*64 - 1"):
        seed.rngs(4)
    with pytest.raises(DomainError, match="reps must be >= 0"):
        seed.rngs(-1)
    with pytest.raises(DomainError):
        top_order_statistics_rows(100, 2, P, seed, 4)


NOT_INTEGERS = [7.9, "200", True, math.inf, math.nan]


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("name", ["n", "k", "reps"])
def test_row_sampler_refuses_non_integer_counts(name, value):
    counts = {"n": 100, "k": 2, "reps": 3}
    with pytest.raises(DomainError, match=f"must be an integer, got {value!r}"):
        top_order_statistics_rows(p=P, seed=SeedSpec(1), **{**counts, name: value})
    if name != "reps":
        with pytest.raises(DomainError, match="must be an integer"):
            top_order_statistics(p=P, seed=SeedSpec(1), **{"n": 100, "k": 2, name: value})
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
# SortedSample and spacings


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


def test_spacings_hand_check():
    s = SortedSample(np.array([0.1, 0.5, 1.2, 2.0, 3.5]))
    got = spacings(s, 3)
    # descending from the top: X(5)-X(4), X(4)-X(3), X(3)-X(2)
    np.testing.assert_allclose(got, [1.5, 0.8, 0.7], rtol=1e-15)


def test_spacings_k_bounds():
    s = SortedSample(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DomainError):
        spacings(s, 0)
    with pytest.raises(DomainError):
        spacings(s, 3)
    assert spacings(s, 2).shape == (2,)


def test_top_order_statistics_rows_match_per_seed_loop():
    # reference: the one-sample draw path written out per seed; the row form
    # must reproduce it bit for bit, and the one-seed call is its first row
    n, k = 100_000, 7
    rows = top_order_statistics_rows(n, k, P, SeedSpec(3), 300)
    assert rows.shape == (300, k + 1)
    for r, row in enumerate(rows):
        rng = SeedSpec(3, r).rng()
        u = rng.random(k + 1)
        u = np.where(u == 0.0, 2.0**-53, u)
        partial = np.cumsum(-np.log1p(-u))
        total = partial[-1] + rng.standard_gamma(n - k)
        ref = np.maximum.accumulate(quantile_values(partial[::-1] / total, P))
        np.testing.assert_array_equal(row, ref)
    np.testing.assert_array_equal(top_order_statistics(n, k, P, SeedSpec(3, 5)).values, rows[5])


# ---------------------------------------------------------------------------
# CSV I/O


def test_csv_round_trip(tmp_path):
    path = tmp_path / "values.csv"
    values = mixture_values(200, P, SeedSpec(21))
    with open(path, "w", encoding="utf-8") as fh:
        write_values_csv(values, fh)
    back = read_values_csv(str(path))
    np.testing.assert_array_equal(values, back)  # repr round-trips exactly


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


def test_parse_lines_label_in_error():
    with pytest.raises(CsvFormatError) as exc_info:
        parse_values_lines(["1.0", "nope"], label="<stdin>")
    assert "<stdin>" in str(exc_info.value)


def test_parse_lines_strips_byte_order_mark():
    # a UTF-8 BOM must not turn the first value into a skipped header
    np.testing.assert_array_equal(parse_values_lines("\ufeff1.5\n2".split("\n")), [1.5, 2.0])
    np.testing.assert_array_equal(parse_values_lines(["\ufeffvalue", "2"]), [2.0])
    with pytest.raises(CsvFormatError) as exc_info:
        parse_values_lines(["\ufeff1.0", "oops"], label="bom.csv")
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


def _readers(text, directory):
    # a file is read with universal newlines; stdin lines are split on "\n"
    path = os.path.join(directory, "prop.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return [
        (path, lambda: read_values_csv(path)),
        ("<stdin>", lambda: parse_values_lines(text.split("\n"), label="<stdin>")),
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
        parse_values_lines("1.0\n2.0\n\n".split("\n"), label="s.csv")
    # a non-finite first line is a bad value, not a header
    for first in ("inf", "-inf", " nan\r"):
        with pytest.raises(CsvFormatError, match=r"^s\.csv:1:"):
            parse_values_lines([first, "1.0"], label="s.csv")


def _parsed(parse, lines):
    try:
        return parse(lines, label="p.csv").view(np.uint64).tolist()
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
    for pos, text in bad:
        lines.insert(min(pos, len(lines)), text)
    lines = _csv_text((["value"] if header else []) + lines, crlf, bom).split("\n")
    parsed = _parsed(parse_values_lines, lines)
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
