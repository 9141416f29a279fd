"""Reproducible sampling of the Pseudo-Lindley law and sample containers.

Streams are counter-based: a ``SeedSpec`` holds a 64-bit master seed plus a
64-bit stream id, combined into a single Philox key, so any replication of
any experiment owns an independent stream and results are reproducible
under any execution order.  Exponential variates are drawn by inverse
transform ``-log1p(-U)`` with U in [0, 1), which never evaluates log(0).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .distribution import Params, mixture_weights
from .errors import CsvFormatError, DomainError, check_int, check_sample
from .quantile import quantile_values

__all__ = [
    "SeedSpec",
    "SortedSample",
    "mixture_values",
    "sample_mixture",
    "sample_inverse_cdf",
    "top_order_statistics",
    "spacings",
    "read_values_csv",
    "parse_values_lines",
    "write_values_csv",
]

_U64 = 1 << 64
_MIN_UNIFORM = 2.0**-53
_CSV_BLOCK = 2**16  # values per write in write_values_csv


@dataclass(frozen=True, slots=True)
class SeedSpec:
    """Master seed plus stream id addressing one independent Philox stream."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            if not 0 <= check_int(v, name) < _U64:
                raise DomainError(f"{name} must lie in [0, 2**64), got {v!r}")
            object.__setattr__(self, name, int(v))

    def rng(self) -> np.random.Generator:
        """Generator on the (master_seed, stream_id) Philox stream."""
        key = self.master_seed | (self.stream_id << 64)
        return np.random.Generator(np.random.Philox(key=key))

    def rngs(self, reps: int) -> Iterator[np.random.Generator]:
        """The generator on each of streams ``stream_id .. stream_id + reps
        - 1`` in turn: replication r draws from stream ``stream_id + r``,
        and draws what ``SeedSpec(master_seed, stream_id + r).rng()`` draws.

        One call builds one generator, the first stream's :meth:`rng`, and
        restores its starting state with the key's stream word changed for
        each stream, so every step yields the same object: a yielded
        generator is valid until the next one is requested.  Separate calls
        share nothing.  A range past the last stream id is refused here,
        before anything is drawn."""
        stop = _stream_stop(self.stream_id, check_int(reps, "reps", 0))
        return _reset_streams(self, stop)


def _stream_stop(first: int, count: int, error=DomainError) -> int:
    """The end ``first + count`` of the streams ``first .. first + count - 1``;
    a range past the last stream id, 2**64 - 1, raises ``error``."""
    if first + count > _U64:
        raise error(f"streams {first} to {first} + {count - 1} pass 2**64 - 1")
    return first + count


def _reset_streams(seed: SeedSpec, stop: int) -> Iterator[np.random.Generator]:
    rng = seed.rng()
    bits = rng.bit_generator
    state = bits.state  # counter 0, empty buffer; key [master_seed, stream_id]
    key = state["state"]["key"]
    for stream in range(seed.stream_id, stop):
        key[1] = stream
        bits.state = state  # copies the arrays, so state stays the fresh one
        yield rng


@dataclass(frozen=True)
class SortedSample:
    """Ascending, finite observations."""

    values: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        values = check_sample(self.values, "sample")
        if np.any(values[1:] < values[:-1]):  # no subtraction to overflow
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
    n = check_int(n, "sample size", 1)
    rng = seed.rng()
    w = mixture_weights(p)
    component = rng.random(n)
    e1 = _exponentials(rng, n)
    e2 = _exponentials(rng, n)
    return (e1 + np.where(component < w.exponential, 0.0, e2)) / p.theta


def sample_mixture(n: int, p: Params, seed: SeedSpec) -> SortedSample:
    """Sorted sample of size n from the mixture representation."""
    return SortedSample(np.sort(mixture_values(n, p, seed)))


def sample_inverse_cdf(n: int, p: Params, seed: SeedSpec) -> SortedSample:
    """Sorted sample of size n by inverting the cdf at uniform draws."""
    n = check_int(n, "sample size", 1)
    rng = seed.rng()
    u = rng.random(n)
    # measure-zero guard: rng.random can return exactly 0, outside (0, 1)
    u = np.where(u == 0.0, _MIN_UNIFORM, u)
    return SortedSample(np.sort(quantile_values(u, p)))


def top_order_statistics(n: int, k: int, p: Params, seed: SeedSpec) -> SortedSample:
    """The k+1 largest of n i.i.d. draws, ascending, in O(k): the one-seed
    case of :func:`top_order_statistics_rows`."""
    return SortedSample(top_order_statistics_rows(n, k, p, seed, 1)[0])


def top_order_statistics_rows(n: int, k: int, p: Params, seed: SeedSpec, reps: int) -> np.ndarray:
    """The k+1 largest of n i.i.d. draws for each of ``reps`` replications,
    as a ``(reps, k+1)`` array of ascending rows, in O(k) per row (Renyi).

    With ``Gamma_j = E_1 + ... + E_j`` for unit exponentials, the j-th
    smallest of n uniform tail masses is ``Gamma_j / Gamma_{n+1}`` in law,
    so ``X_{n-j+1,n} = Q(Gamma_j / Gamma_{n+1})``.  Row r draws only
    ``E_1..E_{k+1}`` (by inverse transform) and ``Gamma_{n+1} -
    Gamma_{k+1}`` as one ``standard_gamma(n-k)`` on stream ``stream_id + r``;
    the transforms and the quantile solve then run once on the whole array.
    """
    n = check_int(n, "sample size", 1)
    k = check_int(k, "k")
    if not 0 <= k <= n - 1:
        raise DomainError(f"k must lie in [0, n-1] = [0, {n - 1}], got {k}")
    rngs = seed.rngs(reps)
    u = np.empty((reps, k + 1))
    rest = np.empty(reps)
    for i, rng in enumerate(rngs):
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


def _top_count(n: int, k: int, error=DomainError) -> int:
    """``k`` as a number of top spacings of n values, in [1, n-1], else ``error``."""
    k = check_int(k, "k", error=error)
    if not (1 <= k <= n - 1):
        raise error(f"k must lie in [1, n-1] = [1, {n - 1}], got {k}")
    return k


def top_spacings(values: np.ndarray, k: int) -> np.ndarray:
    """:func:`spacings` along the last axis of ascending ``values``; C-order,
    so numpy's vector loops treat each row as they treat one sample.  A
    spacing past the double range raises DomainError."""
    k = _top_count(values.shape[-1], k)
    with np.errstate(over="ignore"):  # a spacing past the double range is refused just below
        sp = np.diff(values[..., -(k + 1):], axis=-1)[..., ::-1].copy()
    if not np.isfinite(sp).all():
        raise DomainError(f"a top-{k} spacing overflows float64")
    return sp


def read_values_csv(path: str) -> np.ndarray:
    """Read a one-value-per-line CSV, auto-detecting a single header line.

    The first line may be non-numeric (treated as a header); any later
    non-numeric line raises CsvFormatError carrying the line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_values_lines(text.split("\n"), label=str(path))


def parse_values_lines(lines, label: str = "<stream>") -> np.ndarray:
    """Parse already-split CSV lines; ``label`` names the source in errors.

    A line holds what Python's ``float`` accepts, surrounding whitespace
    included, and must be finite.  The lines convert in one pass; only when
    that fails does a second pass look for the first bad line to name.
    """
    lines = list(lines)
    if lines and lines[-1] == "":
        lines.pop()
    if lines and lines[0].startswith("\ufeff"):
        lines[0] = lines[0][1:]  # UTF-8 byte order mark, not part of the data
    first = 1
    if lines:
        try:
            float(lines[0])
        except ValueError:
            first = 2  # header
    body = lines[first - 1:]
    if not body:
        raise CsvFormatError(label, max(len(lines), 1), "<no numeric rows>")
    try:
        values = np.fromiter(map(float, body), np.float64, count=len(body))
    except ValueError:
        values = None
    if values is not None and np.isfinite(values).all():
        return values
    for line_no, raw in enumerate(body, start=first):
        try:
            if math.isfinite(float(raw)):
                continue
        except ValueError:
            pass
        raise CsvFormatError(label, line_no, raw)


def write_values_csv(values, fh) -> None:
    """Write a finite 1-d sample one value per line with full round-trip precision.

    Each block of ``_CSV_BLOCK`` values is joined into one string and
    written with one call, so memory stays bounded at any sample size.
    """
    values = check_sample(values, "values")
    for start in range(0, values.size, _CSV_BLOCK):
        fh.write("\n".join(map(repr, values[start:start + _CSV_BLOCK].tolist())) + "\n")
