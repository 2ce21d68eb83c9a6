"""Spans around the calls kgorbit's modules make into one another.

The tracer replaces, for the duration of a ``with Tracer():`` block, every
public kgorbit function bound as a module attribute of one of the six
layers by a wrapper that records a span.  Calls resolve such names
through module globals at call time, so a call from one layer into
another, or within a layer through a public name, passes a wrapper.
Private helpers are not wrapped (the kernel ``_project_power_raw`` among
them); only the CLI's two report writers are, so that write time can be
attributed.

A span holds name, start, end, parent span and thread id.  Parents come
from a per-thread stack because the CLI runs sweep items on pool
threads; a span opened on a pool thread has no parent.  Spans are kept
in memory and written out by the caller after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time

LAYERS = ("spectra", "hamiltonian", "integrators", "stationary", "experiments", "cli")

# Scalar helpers called inside quadrature and ODE right-hand sides, up to
# millions of times per run: a span each would dominate the traced run.
UNTRACED = frozenset({"force", "potential_f", "f_prime"})
EXTRA = {"cli": ("_write_csv", "_write_json")}


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "error", "data")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.error = None
        self.data = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Install with ``with Tracer(probes) as tracer:``; every wrapped name
    is restored on exit.  ``probes`` maps a span name to a callable
    ``probe(arguments, result)`` whose return value is stored in the
    span's ``data``; ``arguments`` are the call's bound arguments."""

    def __init__(self, probes: dict | None = None):
        self.probes = probes or {}
        self.spans: list[Span] = []
        self.wrapped: list[tuple[object, str, object]] = []
        self._local = threading.local()

    def targets(self):
        """(module, attribute, function) for every name the tracer wraps."""
        for layer in LAYERS:
            module = importlib.import_module(f"kgorbit.{layer}")
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or not obj.__module__.startswith("kgorbit."):
                    continue
                public = not attr.startswith("_") and attr not in UNTRACED
                if public or attr in EXTRA.get(layer, ()):
                    yield module, attr, obj

    def __enter__(self):
        for module, attr, fn in list(self.targets()):
            self.wrapped.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn))
        return self

    def __exit__(self, *exc_info):
        for module, attr, fn in reversed(self.wrapped):
            setattr(module, attr, fn)
        self.wrapped.clear()
        return False

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        probe = self.probes.get(name)
        signature = inspect.signature(fn) if probe else None
        spans, local, clock = self.spans, self._local, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, stack[-1] if stack else None, threading.get_ident())
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.data = probe(bound.arguments, result)
            return result

        return wrapper


def self_times(spans: list[Span]) -> dict[Span, float]:
    """Span duration minus the time its child spans cover.  Children run
    on their parent's thread and nest inside it, so their durations add."""
    child_time: dict[Span, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
    return {span: span.duration - child_time.get(span, 0.0) for span in spans}


def to_records(spans: list[Span]) -> list[list]:
    """Spans as JSON-ready rows [name, start, end, parent row, thread, error]."""
    index = {span: i for i, span in enumerate(spans)}
    return [[s.name, s.start, s.end, index.get(s.parent), s.thread, s.error]
            for s in spans]
