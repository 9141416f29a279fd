"""In-memory spans around plevt's cross-module calls.

A :class:`Tracer` replaces, by attribute name, the functions that one plevt
module calls from another (``plevt.harness.sample_mixture``,
``plevt.cli.read_values_csv``, ...) with wrappers that record a span per
call.  Nothing under ``src/`` changes: the wrappers live here and are
removed again when the tracer is closed.  A name that a later version of
plevt no longer has is skipped and listed in :attr:`Tracer.absent`.

Spans are kept in memory; :meth:`Tracer.to_json` gives them for writing out
once the run has ended.  A span's *layer* is the plevt module that defines
the traced function, so self times aggregate per module.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager

#: (namespace module, attribute names) wrapped during a traced pass.  The
#: names are the plevt functions each module calls from another module.
WRAPPED = (
    ("plevt.harness", (
        "run_experiment", "mixture_values", "sample_mixture",
        "sample_inverse_cdf", "dh_statistic", "standardize_dh",
        "check_dh_conditions", "check_k1", "quantile_exact",
        "quantile_tail_expansion", "record_value_from_log_tail", "cdf",
    )),
    ("plevt.gof", (
        "ks_distance_sorted", "ks_two_sample", "std_normal_cdf", "gumbel_cdf",
    )),
    ("plevt.cli", (
        "mixture_values", "sample_mixture", "write_values_csv",
        "read_values_csv", "parse_values_lines", "fit_method_of_moments",
        "hill", "dh_statistic", "check_dh_conditions", "check_k1",
        "default_k", "extract_records", "simulate_record", "quantile_values",
        "pdf", "survival", "cdf",
    )),
    ("plevt.records", ("quantile_from_log_tail", "quantile_tail_expansion")),
    ("plevt.sampling", ("quantile_values", "mixture_weights")),
    ("plevt.tail", ("spacings",)),
    # public names the benchmark itself calls through the package
    ("plevt", (
        "quantile_values", "quantile_exact", "quantile_from_log_tail",
        "simulate_record", "pdf", "survival", "cdf",
    )),
)


def _kind_of(args, kwargs):
    e = args[0] if args else kwargs.get("e")
    return getattr(e, "kind", None)


#: Functions whose spans carry a tag taken from their arguments.
TAGGERS = {"run_experiment": _kind_of}


def layer_of(fn) -> str:
    """Module name below ``plevt`` that defines ``fn`` (``plevt.tail`` -> ``tail``)."""
    return getattr(fn, "__module__", "?").rsplit(".", 1)[-1]


class Span:
    __slots__ = ("name", "layer", "parent", "tag", "start", "end")

    def __init__(self, name, layer, parent, tag, start):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.tag = tag
        self.start = start
        self.end = start

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9


class Tracer:
    """Records nested spans; install with ``with Tracer() as tr:``."""

    def __init__(self, wrapped=WRAPPED):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._wrapped = wrapped
        self._saved: list[tuple] = []
        self._local = threading.local()

    # -- recording -----------------------------------------------------

    @contextmanager
    def span(self, name: str, layer: str, tag=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if tag is None and parent is not None:
            tag = self.spans[parent].tag
        idx = len(self.spans)
        s = Span(name, layer, parent, tag, time.perf_counter_ns())
        self.spans.append(s)
        stack.append(idx)
        try:
            yield s
        finally:
            s.end = time.perf_counter_ns()
            stack.pop()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn):
        layer = layer_of(fn)
        name = f"{layer}.{fn.__name__}"
        tagger = TAGGERS.get(fn.__name__)
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = tagger(args, kwargs) if tagger else None
            with span(name, layer, tag):
                return fn(*args, **kwargs)

        return traced

    # -- installation --------------------------------------------------

    def __enter__(self):
        for modname, names in self._wrapped:
            mod = importlib.import_module(modname)
            for attr in names:
                fn = getattr(mod, attr, None)
                if not callable(fn):
                    self.absent.append(f"{modname}.{attr}")
                    continue
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)
        return False

    # -- analysis ------------------------------------------------------

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time summed per layer."""
        out: dict[str, float] = {}
        for s, own in zip(self.spans, self.self_seconds()):
            out[s.layer] = out.get(s.layer, 0.0) + own
        return out

    def durations(self, name: str, tag=None) -> list[float]:
        """Durations in seconds of the spans called ``name``, optionally only
        those carrying ``tag``."""
        return [s.seconds for s in self.spans
                if s.name == name and (tag is None or s.tag == tag)]

    def to_json(self) -> dict:
        t0 = self.spans[0].start if self.spans else 0
        return {
            "absent": self.absent,
            "spans": [
                {
                    "id": i,
                    "parent": s.parent,
                    "name": s.name,
                    "tag": s.tag,
                    "start_ns": s.start - t0,
                    "end_ns": s.end - t0,
                }
                for i, s in enumerate(self.spans)
            ],
        }
