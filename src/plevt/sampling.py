"""Reproducible sampling of the Pseudo-Lindley law and sample containers.

Streams are counter-based: a ``SeedSpec`` holds a 64-bit master seed plus a
64-bit stream id, combined into a single Philox key, so any sample, and any
block of replications of an experiment, owns an independent stream and
results are reproducible under any execution order.  Exponential variates
are drawn by inverse transform ``-log1p(-U)`` with U in [0, 1), which never
evaluates log(0).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .distribution import Params, _in_data_units
from .errors import CsvFormatError, DomainError, check_int, check_sample
from .quantile import quantile_values

__all__ = [
    "SeedSpec",
    "SortedSample",
    "mixture_values",
    "sample_mixture",
    "sample_inverse_cdf",
    "read_values_csv",
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
        seed, stream = self.master_seed, self.stream_id
        if type(seed) is int and type(stream) is int and 0 <= seed < _U64 and 0 <= stream < _U64:
            return  # the common case: nothing to refuse or convert
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            if not 0 <= check_int(v, name) < _U64:
                raise DomainError(f"{name} must lie in [0, 2**64), got {v!r}")
            object.__setattr__(self, name, int(v))

    def rng(self) -> np.random.Generator:
        """Generator on the (master_seed, stream_id) Philox stream."""
        key = self.master_seed | (self.stream_id << 64)
        return np.random.Generator(np.random.Philox(key=key))


def _stream_stop(first: int, count: int, error=DomainError) -> int:
    """The end ``first + count`` of the streams ``first .. first + count - 1``;
    a range past the last stream id, 2**64 - 1, raises ``error``."""
    if first + count > _U64:
        raise error(f"streams {first} to {first} + {count - 1} pass 2**64 - 1")
    return first + count


def _block_seed(seed: SeedSpec, first: int) -> SeedSpec:
    """The key of the block of replications that starts at replication
    ``first`` of ``seed``'s: stream ``seed.stream_id + first``."""
    return SeedSpec(seed.master_seed, seed.stream_id + first)


def _block_rngs(seed: SeedSpec, reps: int) -> tuple[np.random.Generator, np.random.Generator]:
    """The generators of a block of ``reps`` replications on ``seed``'s key:
    the uniforms' at counter 0, the gammas' 2**128 draws on, so they never
    overlap.  numpy fills arrays in order, so row r is the same at any count
    above r.  The block takes the streams ``stream_id .. stream_id + reps -
    1``; a range past 2**64 - 1 is refused before anything is drawn."""
    _stream_stop(seed.stream_id, check_int(reps, "reps", 0))
    uniforms = seed.rng()
    return uniforms, np.random.Generator(uniforms.bit_generator.jumped())


_local = threading.local()


def _thread_rng(seed: SeedSpec) -> np.random.Generator:
    """The calling thread's own generator, at the start of ``seed``'s stream.

    It draws what ``seed.rng()`` draws, without building a Philox per call:
    a Philox state is its key and counter, so the state the thread's
    generator returned at its first stream's start (counter 0, an empty
    buffer), with the key words replaced, is where ``seed.rng()`` starts.
    Setting the state copies its arrays, so the kept state stays at counter 0.
    The next call in the same thread resets the generator, so it must not
    leave plevt; the block draws of the replicated kinds build their own
    (:func:`_block_rngs`).
    """
    cached = getattr(_local, "rng", None)
    if cached is None:
        rng = seed.rng()
        _local.rng = cached = rng, rng.bit_generator.state
    rng, fresh = cached
    key = fresh["state"]["key"]
    key[0] = seed.master_seed
    key[1] = seed.stream_id
    rng.bit_generator.state = fresh
    return rng


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


def _exponentials(rng: np.random.Generator, size: int | tuple[int, int]) -> np.ndarray:
    # inverse transform: -log(1 - U) with U in [0, 1), so the argument of
    # log never reaches 0; computed in the array of the draws
    e = rng.random(size)
    np.negative(e, out=e)
    np.log1p(e, out=e)
    return np.negative(e, out=e)


def mixture_values(n: int, p: Params, seed: SeedSpec) -> np.ndarray:
    """Unsorted i.i.d. draws via the Exp/Gamma(2) mixture decomposition.

    Draw order per call is fixed (component uniforms, then the two
    exponential blocks) so equal seeds give bit-equal streams.  The second
    exponential block is always drawn, used or not, which keeps the stream
    layout independent of the component choices.
    """
    n = check_int(n, "sample size", 1)
    rng = seed.rng()
    exponential_only = rng.random(n) < (p.beta - 1.0) / p.beta
    e1 = _exponentials(rng, n)
    e2 = _exponentials(rng, n)
    # e1 + 0.0 is e1 (e1 >= +0.0), so adding the zeroed e2 gives the same bits
    np.copyto(e2, 0.0, where=exponential_only)
    e1 += e2
    return _in_data_units(e1, p, "a draw")


def sample_mixture(n: int, p: Params, seed: SeedSpec) -> SortedSample:
    """Sorted sample of size n from the mixture representation."""
    values = mixture_values(n, p, seed)
    values.sort()
    return SortedSample(values)


def sample_inverse_cdf(n: int, p: Params, seed: SeedSpec) -> SortedSample:
    """Sorted sample of size n by inverting the cdf at uniform draws."""
    n = check_int(n, "sample size", 1)
    rng = seed.rng()
    u = rng.random(n)
    # measure-zero guard: rng.random can return exactly 0, outside (0, 1)
    np.copyto(u, _MIN_UNIFORM, where=u == 0.0)
    values = quantile_values(u, p)
    values.sort()
    return SortedSample(values)


def top_order_statistics_rows(n: int, k: int, p: Params, seed: SeedSpec, reps: int) -> np.ndarray:
    """The k+1 largest of n i.i.d. draws for each of ``reps`` replications,
    as a ``(reps, k+1)`` array of ascending rows, in O(k) per row (Renyi).

    With ``Gamma_j = E_1 + ... + E_j`` for unit exponentials, the j-th
    smallest of n uniform tail masses is ``Gamma_j / Gamma_{n+1}`` in law,
    so ``X_{n-j+1,n} = Q(Gamma_j / Gamma_{n+1})``.  Row r draws only
    ``E_1..E_{k+1}`` (by inverse transform), from row r of one
    ``(reps, k+1)`` array of uniforms, and ``Gamma_{n+1} - Gamma_{k+1}``,
    entry r of one ``standard_gamma(n-k)`` array, both on ``seed``'s key
    (:func:`_block_rngs`); the transforms and the quantile solve then run
    once on the whole array, which the harness keeps to one block of an
    attempt's replications.
    """
    n = check_int(n, "sample size", 1)
    k = check_int(k, "k")
    if not 0 <= k <= n - 1:
        raise DomainError(f"k must lie in [0, n-1] = [0, {n - 1}], got {k}")
    uniforms, gammas = _block_rngs(seed, reps)
    e = _exponentials(uniforms, (reps, k + 1))
    rest = gammas.standard_gamma(n - k, size=reps)
    # measure-zero guard: E = 0 (U = 0) would give Gamma_1 = 0 and an infinite
    # tail; E takes 2**-53, which is exactly -log1p(-U) at U = 2**-53
    np.copyto(e, _MIN_UNIFORM, where=e == 0.0)
    partial = np.cumsum(e, axis=1)
    total = partial[:, -1:] + rest[:, None]
    values = quantile_values(partial[:, ::-1] / total, p)
    # the solves are independent, so nearly equal tails could come back
    # out of order by rounding; the running maximum restores the order
    return np.maximum.accumulate(values, axis=1)


def read_values_csv(path: str) -> np.ndarray:
    """Read a one-value-per-line CSV, auto-detecting a single header line.

    The first line may be non-numeric (treated as a header); any later
    non-numeric line raises CsvFormatError carrying the line number.  A file
    that is not UTF-8 text raises it at line 0, as input it cannot read.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return _read_values_text(fh, str(path))


def _read_values_text(fh, label: str) -> np.ndarray:
    """The values of the strict UTF-8 text stream ``fh``, as :func:`read_values_csv`
    reads a file's; ``label`` names the source in errors.

    A line holds what Python's ``float`` accepts, surrounding whitespace
    included, and must be finite.  The lines convert in one pass; only when
    that fails does a second pass look for the first bad line to name.
    """
    try:
        text = fh.read()
    except UnicodeDecodeError as exc:
        raise CsvFormatError(label, 0, f"not UTF-8 text at byte {exc.start}") from None
    # a UTF-8 byte order mark is not part of the data
    lines = text.removeprefix("\ufeff").split("\n")
    if lines[-1] == "":
        lines.pop()
    first = 1
    if lines:
        try:
            float(lines[0])
        except ValueError:
            del lines[0]  # header
            first = 2
    if not lines:  # no line, or a header alone
        raise CsvFormatError(label, 1, "<no numeric rows>")
    try:
        values = np.fromiter(map(float, lines), np.float64, count=len(lines))
    except ValueError:
        values = None
    if values is not None and np.isfinite(values).all():
        return values
    for line_no, raw in enumerate(lines, start=first):
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
    values = check_sample(values, "sample")
    for start in range(0, values.size, _CSV_BLOCK):
        fh.write("\n".join(map(repr, values[start:start + _CSV_BLOCK].tolist())) + "\n")
