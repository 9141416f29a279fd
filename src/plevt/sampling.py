"""Reproducible sampling of the Pseudo-Lindley law and sample containers.

Streams are counter-based: a ``SeedSpec`` holds a 64-bit master seed plus a
64-bit stream id, combined into a single Philox key, so any replication of
any experiment owns an independent stream and results are reproducible
under any execution order.  Exponential variates are drawn by inverse
transform ``-log1p(-U)`` with U in [0, 1), which never evaluates log(0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distribution import Params, mixture_weights
from .errors import CsvFormatError, DomainError
from .quantile import quantile_values

__all__ = [
    "SeedSpec",
    "SampleOrigin",
    "SortedSample",
    "mixture_values",
    "sample_mixture",
    "sample_inverse_cdf",
    "top_order_statistics",
    "spacings",
    "read_values_csv",
    "parse_values_lines",
    "load_sample_csv",
    "write_values_csv",
]

_U64 = 1 << 64
_MIN_UNIFORM = 2.0**-53


@dataclass(frozen=True, slots=True)
class SeedSpec:
    """Master seed plus stream id addressing one independent Philox stream."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise DomainError(f"{name} must be an integer, got {v!r}")
            if not (0 <= int(v) < _U64):
                raise DomainError(f"{name} must lie in [0, 2**64), got {v!r}")
            object.__setattr__(self, name, int(v))

    def rng(self) -> np.random.Generator:
        """Generator on the (master_seed, stream_id) Philox stream."""
        key = self.master_seed | (self.stream_id << 64)
        return np.random.Generator(np.random.Philox(key=key))

    def stream(self, stream_id: int) -> "SeedSpec":
        """Same master seed, different stream (one per replication)."""
        return SeedSpec(self.master_seed, stream_id)


@dataclass(frozen=True, slots=True)
class SampleOrigin:
    """Provenance tag: simulated(seed, params) or ingested(path)."""

    kind: str
    seed: SeedSpec | None = None
    params: Params | None = None
    path: str | None = None

    def __post_init__(self):
        if self.kind not in ("simulated", "ingested"):
            raise DomainError(f"origin kind must be simulated|ingested, got {self.kind!r}")


@dataclass(frozen=True)
class SortedSample:
    """Ascending, finite observations plus their provenance."""

    values: np.ndarray
    origin: SampleOrigin
    n: int = field(init=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise DomainError("sample must be a non-empty 1-d array")
        if not np.isfinite(values).all():
            raise DomainError("sample values must all be finite")
        if np.any(np.diff(values) < 0.0):
            raise DomainError("sample values must be nondecreasing")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "n", int(values.size))


def _exponentials(rng: np.random.Generator, size: int) -> np.ndarray:
    # inverse transform: -log(1 - U) with U in [0, 1), so the argument of
    # log never reaches 0
    return -np.log1p(-rng.random(size))


def mixture_values(n: int, p: Params, seed: SeedSpec) -> np.ndarray:
    """Unsorted i.i.d. draws via the Exp/Gamma(2) mixture decomposition.

    Draw order per call is fixed (component uniforms, then the two
    exponential blocks) so equal seeds give bit-equal streams.  The second
    exponential block is always drawn, used or not, which keeps the stream
    layout independent of the component choices.
    """
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    rng = seed.rng()
    w = mixture_weights(p)
    component = rng.random(n)
    e1 = _exponentials(rng, n)
    e2 = _exponentials(rng, n)
    return (e1 + np.where(component < w.exponential, 0.0, e2)) / p.theta


def sample_mixture(n: int, p: Params, seed: SeedSpec) -> SortedSample:
    """Sorted sample of size n from the mixture representation."""
    values = np.sort(mixture_values(n, p, seed))
    return SortedSample(values, SampleOrigin("simulated", seed=seed, params=p))


def sample_inverse_cdf(n: int, p: Params, seed: SeedSpec) -> SortedSample:
    """Sorted sample of size n by inverting the cdf at uniform draws."""
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    rng = seed.rng()
    u = rng.random(n)
    # measure-zero guard: rng.random can return exactly 0, outside (0, 1)
    u = np.where(u == 0.0, _MIN_UNIFORM, u)
    values = np.sort(quantile_values(u, p))
    return SortedSample(values, SampleOrigin("simulated", seed=seed, params=p))


def top_order_statistics(n: int, k: int, p: Params, seed: SeedSpec) -> SortedSample:
    """The k+1 largest of n i.i.d. draws, ascending, in O(k): the one-seed
    case of :func:`top_order_statistics_rows`."""
    values = top_order_statistics_rows(n, k, p, [seed])[0]
    return SortedSample(values, SampleOrigin("simulated", seed=seed, params=p))


def top_order_statistics_rows(n: int, k: int, p: Params, seeds) -> np.ndarray:
    """The k+1 largest of n i.i.d. draws for each seed, as a
    ``(len(seeds), k+1)`` array of ascending rows, in O(k) per row (Renyi).

    With ``Gamma_j = E_1 + ... + E_j`` for unit exponentials, the j-th
    smallest of n uniform tail masses is ``Gamma_j / Gamma_{n+1}`` in law,
    so ``X_{n-j+1,n} = Q(Gamma_j / Gamma_{n+1})``.  Row i draws only
    ``E_1..E_{k+1}`` (by inverse transform) and ``Gamma_{n+1} -
    Gamma_{k+1}`` as one ``standard_gamma(n-k)``, on ``seeds[i]``'s stream;
    the transforms and the quantile solve then run once on the whole array.
    """
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    if not 0 <= k <= n - 1:
        raise DomainError(f"k must lie in [0, n-1] = [0, {n - 1}], got {k}")
    u = np.empty((len(seeds), k + 1))
    rest = np.empty(len(seeds))
    for i, seed in enumerate(seeds):
        rng = seed.rng()
        u[i] = rng.random(k + 1)
        rest[i] = rng.standard_gamma(n - k)
    # measure-zero guard: U = 0 would give Gamma_1 = 0 and an infinite tail
    u = np.where(u == 0.0, _MIN_UNIFORM, u)
    partial = np.cumsum(-np.log1p(-u), axis=1)
    total = partial[:, -1:] + rest[:, None]
    values = quantile_values(partial[:, ::-1] / total, p)
    # the solves are independent, so nearly equal tails could come back
    # out of order by rounding; the running maximum restores the order
    return np.maximum.accumulate(values, axis=1)


def spacings(sample: SortedSample, k: int) -> np.ndarray:
    """Top spacings ``X_{n-j+1,n} - X_{n-j,n}`` for j = 1..k."""
    return top_spacings(sample.values, k)


def top_spacings(values: np.ndarray, k: int) -> np.ndarray:
    """:func:`spacings` along the last axis of ascending ``values``; C-order,
    so numpy's vector loops treat each row as they treat one sample."""
    n = values.shape[-1]
    if not (1 <= k <= n - 1):
        raise DomainError(f"k must lie in [1, n-1] = [1, {n - 1}], got {k}")
    return np.diff(values[..., -(k + 1):], axis=-1)[..., ::-1].copy()


def read_values_csv(path: str) -> np.ndarray:
    """Read a one-value-per-line CSV, auto-detecting a single header line.

    The first line may be non-numeric (treated as a header); any later
    non-numeric line raises CsvFormatError carrying the line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_values_lines(text.split("\n"), label=str(path))


def parse_values_lines(lines, label: str = "<stream>") -> np.ndarray:
    """Parse already-split CSV lines; ``label`` names the source in errors."""
    lines = list(lines)
    values: list[float] = []
    if lines and lines[-1] == "":
        lines.pop()
    if lines and lines[0].startswith("\ufeff"):
        lines[0] = lines[0][1:]  # UTF-8 byte order mark, not part of the data
    for line_no, raw in enumerate(lines, start=1):
        text = raw.strip()
        try:
            v = float(text)
        except ValueError:
            if line_no == 1:
                continue  # header
            raise CsvFormatError(label, line_no, raw) from None
        if not math.isfinite(v):
            raise CsvFormatError(label, line_no, raw)
        values.append(v)
    if not values:
        raise CsvFormatError(label, max(len(lines), 1), "<no numeric rows>")
    return np.asarray(values, dtype=np.float64)


def load_sample_csv(path: str) -> SortedSample:
    """Ingest a CSV of observations as a SortedSample (sorted ascending)."""
    values = np.sort(read_values_csv(path))
    return SortedSample(values, SampleOrigin("ingested", path=str(path)))


def write_values_csv(values, fh, header: str | None = None) -> None:
    """Write one value per line with full round-trip precision."""
    if header:
        fh.write(header + "\n")
    for v in np.asarray(values, dtype=np.float64):
        fh.write(repr(float(v)) + "\n")
