"""Seeded streams, the two samplers, spacings, CSV I/O."""

import io
import math

import numpy as np
import pytest

from plevt import (
    CsvFormatError,
    DomainError,
    Params,
    SeedSpec,
    SortedSample,
    cdf,
    load_sample_csv,
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
    SampleOrigin,
    parse_values_lines,
    top_order_statistics,
    top_order_statistics_rows,
)

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
    assert SeedSpec(77).stream(5) == SeedSpec(77, 5)


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
    assert s.origin.kind == "simulated"
    assert s.origin.seed == SeedSpec(3)


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
        SortedSample(np.array([2.0, 1.0]), SampleOrigin("ingested"))


def test_sorted_sample_rejects_nonfinite_and_empty():
    with pytest.raises(DomainError):
        SortedSample(np.array([1.0, math.nan]), SampleOrigin("ingested"))
    with pytest.raises(DomainError):
        SortedSample(np.array([]), SampleOrigin("ingested"))
    with pytest.raises(DomainError):
        SortedSample(np.ones((2, 2)), SampleOrigin("ingested"))


def test_spacings_hand_check():
    s = SortedSample(np.array([0.1, 0.5, 1.2, 2.0, 3.5]), SampleOrigin("ingested"))
    got = spacings(s, 3)
    # descending from the top: X(5)-X(4), X(4)-X(3), X(3)-X(2)
    np.testing.assert_allclose(got, [1.5, 0.8, 0.7], rtol=1e-15)


def test_spacings_k_bounds():
    s = SortedSample(np.array([1.0, 2.0, 3.0]), SampleOrigin("ingested"))
    with pytest.raises(DomainError):
        spacings(s, 0)
    with pytest.raises(DomainError):
        spacings(s, 3)
    assert spacings(s, 2).shape == (2,)


def test_top_order_statistics_rows_match_per_seed_loop():
    # reference: the one-sample draw path written out per seed; the row form
    # must reproduce it bit for bit, and the one-seed call is its first row
    n, k = 100_000, 7
    seeds = [SeedSpec(3, r) for r in range(300)]
    rows = top_order_statistics_rows(n, k, P, seeds)
    assert rows.shape == (300, k + 1)
    for seed, row in zip(seeds, rows):
        rng = seed.rng()
        u = rng.random(k + 1)
        u = np.where(u == 0.0, 2.0**-53, u)
        partial = np.cumsum(-np.log1p(-u))
        total = partial[-1] + rng.standard_gamma(n - k)
        ref = np.maximum.accumulate(quantile_values(partial[::-1] / total, P))
        np.testing.assert_array_equal(row, ref)
    np.testing.assert_array_equal(top_order_statistics(n, k, P, seeds[5]).values, rows[5])


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


def test_load_sample_sorts(tmp_path):
    path = tmp_path / "unsorted.csv"
    path.write_text("3.0\n1.0\n2.0\n")
    s = load_sample_csv(str(path))
    np.testing.assert_array_equal(s.values, [1.0, 2.0, 3.0])
    assert s.origin.kind == "ingested"
    assert s.origin.path == str(path)
