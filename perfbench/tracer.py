"""In-memory span tracer that wraps program functions at the module
attributes their callers look them up through.

A span has a name (``layer.function``), a start, an end, a parent and a
realization id.  Nothing under ``src/`` knows about the tracer: ``install`` replaces
``module.attr`` with a timing wrapper and ``uninstall`` puts the original
back.  An attribute that does not exist (renamed or removed by a later
change) is reported as missing and the run goes on without its span.

Bookkeeping that is not program work (counting pairs for a ratio, sizing
a file) runs inside ``tracer.paused()``; the tracer clock excludes it, so
it inflates neither span times nor the traced wall time.
"""

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    rid: object  # realization id shared by the spans of one realization
    error: str = ""


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.missing = []
        self.rid = None
        self._stack = []
        self._paused = 0.0
        self._patched = []

    # clock -----------------------------------------------------------
    def now(self) -> float:
        return time.perf_counter() - self._paused

    @contextlib.contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    # spans -----------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, rid=None):
        if rid is not None:
            self.rid = rid
        parent = self._stack[-1] if self._stack else -1
        sp = Span(name, self.now(), float("nan"), parent, self.rid)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        except BaseException as exc:
            sp.error = type(exc).__name__
            raise
        finally:
            sp.end = self.now()
            self._stack.pop()

    def count(self, key: str, value):
        self.counts[key] = self.counts.get(key, 0) + value

    # patching --------------------------------------------------------
    def install(self, module_name: str, attr: str, name: str, after=None,
                rid_from=None):
        """Wrap ``module_name.attr`` in a span called ``name``; ``attr``
        may name a method as ``Class.method``.

        ``after(tracer, result, args, kwargs)`` runs paused once the call
        returns, to record counts; ``rid_from(args, kwargs)`` gives the
        realization id the call starts.
        """
        try:
            owner = importlib.import_module(module_name)
            *path, attr_name = attr.split(".")
            for part in path:  # a method: "Class.method"
                owner = getattr(owner, part)
            original = getattr(owner, attr_name)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            rid = rid_from(args, kwargs) if rid_from else None
            with tracer.span(name, rid):
                result = original(*args, **kwargs)
            if after is not None:
                with tracer.paused():
                    after(tracer, result, args, kwargs)
            return result

        setattr(owner, attr_name, wrapper)
        self._patched.append((owner, attr_name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def self_times(spans) -> list:
    """Per span: its duration minus the part of it that its children
    cover (the union of the child intervals, clipped to the span)."""
    children = [[] for _ in spans]
    for i, sp in enumerate(spans):
        if sp.parent >= 0:
            children[sp.parent].append(i)
    out = []
    for i, sp in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted((max(spans[c].start, sp.start),
                              min(spans[c].end, sp.end)) for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((sp.end - sp.start) - covered)
    return out


def leaf_time(spans) -> float:
    """Summed duration of the spans that have no child span."""
    parents = {sp.parent for sp in spans}
    return sum(sp.end - sp.start for i, sp in enumerate(spans)
               if i not in parents)


def self_time_by_name(spans) -> dict:
    totals = {}
    for sp, t in zip(spans, self_times(spans)):
        totals[sp.name] = totals.get(sp.name, 0.0) + t
    return totals


def total_time_by_name(spans) -> dict:
    totals = {}
    for sp in spans:
        totals[sp.name] = totals.get(sp.name, 0.0) + (sp.end - sp.start)
    return totals
