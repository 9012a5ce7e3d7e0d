"""Spans around the package's public functions, installed from outside.

The tracer replaces every public function of the traced modules, and every
public plain method of the classes they define, by a wrapper that records a
span (name, start, end, parent).  A function that one module imports from
another is replaced under every name it is bound to, so calls between
modules are seen too.  Nothing in the package is edited; ``uninstall``
puts the original objects back.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int        # index of the enclosing span in Tracer.spans, or -1


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self, modules):
        self.modules = list(modules)
        self.spans = []
        self._open = []            # indices of the spans still running
        self._patches = []         # (owner, attribute, original)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(None)        # reserve the slot in call order
            self._open.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = Span(name, start, end, parent)
        return traced

    def _targets(self):
        """(owner, attribute, span name, function) of every public function
        and plain method defined in the traced modules."""
        for module in self.modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield module, attr, f"{short}.{attr}", obj
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            yield obj, meth, f"{short}.{attr}.{meth}", fn

    def install(self) -> None:
        if self._patches:
            return
        wrappers = {}
        for owner, attr, name, fn in self._targets():
            wrapper = wrappers.setdefault(id(fn), self._wrap(name, fn))
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
        # Re-bind names that other traced modules imported from these.
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def span_cost(self) -> float:
        """Seconds a wrapper adds to one call: the best of 5 timings of
        10000 calls of a no-op through a wrapper, less the best timing of
        the same calls made directly."""
        calls = 10_000

        def noop():
            return None

        def best(fn):
            times = []
            for _ in range(5):
                start = time.perf_counter()
                for _ in range(calls):
                    fn()
                times.append(time.perf_counter() - start)
            return min(times)

        first = len(self.spans)
        cost = (best(self._wrap("noop", noop)) - best(noop)) / calls
        del self.spans[first:]
        return cost

    def finished(self) -> list:
        """The closed spans, in call order."""
        return [s for s in self.spans if s is not None]
