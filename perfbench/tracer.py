"""Spans around calls into brierlab's modules, recorded from outside the program.

A ``Tracer`` replaces a public function with a timing wrapper in every
``brierlab`` module that holds a reference to it, so a name imported by value
(``engine`` does ``from .dgm import derive_stream``) is timed where it is
called. Spans stay in memory; ``summary`` turns them into call counts and self
times (span duration minus the time covered by its direct child spans).
``restore`` puts every original attribute back, and a name that does not
exist is recorded in ``absent`` rather than raising.

Worker processes forked while a tracer is installed inherit the wrappers but
record into their own memory, which is discarded: traced numbers cover the
calling process only.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from typing import Callable

# count(args, kwargs, result) -> amount added to the counter "<span>.<suffix>".
CountFn = Callable[[tuple, dict, object], int]


class Tracer:
    def __init__(self, package: str = "brierlab"):
        self.package = package
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _modules(self):
        prefix = self.package + "."
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == self.package or name.startswith(prefix))
        ]

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, module: str, attr: str, count: tuple[str, CountFn] | None = None) -> None:
        """Time every call to ``<package>.<module>.<attr>`` as span ``<module>.<attr>``."""
        name = f"{module}.{attr}"
        try:
            owner = importlib.import_module(f"{self.package}.{module}")
        except ImportError:
            owner = None
        original = getattr(owner, attr, None)
        if not callable(original):
            self.absent.append(name)
            return
        wrapper = self._span_wrapper(name, original, count)
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Add one to ``counter`` per call of ``owner.attr``, without a span."""
        original = getattr(owner, attr, None)
        if not callable(original):
            self.absent.append(counter)
            return
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, counted)

    def _span_wrapper(self, name: str, original, count: tuple[str, CountFn] | None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                suffix, fn = count
                counts[f"{name}.{suffix}"] += fn(args, kwargs, result)
            return result

        return traced

    def restore(self) -> None:
        """Put back every attribute this tracer replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> tuple[Counter, Counter]:
        """(calls per span name, self seconds per span name) over all spans."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, name in enumerate(self.names):
            calls[name] += 1
            self_s[name] += self.ends[i] - self.starts[i] - child[i]
        return calls, self_s
