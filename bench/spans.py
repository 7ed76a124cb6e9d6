"""In-memory spans around calls into the qgt modules.

A span is ``[name, start, end, parent, attrs]``: perf_counter seconds, the
index of the enclosing span (-1 at the root) and an optional JSON value.
Calls are intercepted by replacing the name the calling module looks up, for
example ``codec.syndrome_decode`` for the decoder's calls into ``bch``, so
the program itself is never edited.  Span names carry the module that does
the work (``bch.syndrome_decode``), which is the layer its time is booked to.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.last: dict[str, object] = {}  # span name -> last return value
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str, attrs=None):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, attrs=None, keep: bool = False):
        """fn with a span around every call; attrs(*args) gives the span's
        attributes, keep stores the return value in self.last[name]."""
        spans, stack, last = self.spans, self._stack, self.last

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs(*args, **kwargs) if attrs else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[4] = {"attrs": rec[4], "raised": type(exc).__name__}
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if keep:
                last[name] = out
            return out

        return traced

    def patch(self, owner, attr: str, name: str, attrs=None, keep: bool = False):
        """Replace owner.attr by a traced version until restore().  A class
        becomes a subclass whose constructor is one span."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(orig, type):
            tracer = self

            def __init__(obj, *args, **kwargs):
                with tracer.span(name):
                    orig.__init__(obj, *args, **kwargs)

            new = type(orig.__name__, (orig,), {"__init__": __init__, "__module__": orig.__module__})
        elif isinstance(orig, classmethod):
            new = classmethod(self.wrap(orig.__func__, name, attrs, keep))
        else:
            new = self.wrap(orig, name, attrs, keep)
        self.replace(owner, attr, new)

    def replace(self, owner, attr: str, value):
        """Set owner.attr to value until restore()."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- reading the spans ------------------------------------------------

    def durations(self, name: str, under: str | None = None, where=None) -> list[float]:
        """Durations in seconds of the spans called name, optionally only
        those with an ancestor called under, or for which where(i) holds."""
        out = []
        for i, (n, a, b, _, _) in enumerate(self.spans):
            if n != name:
                continue
            if under is not None and not self.has_ancestor(i, under):
                continue
            if where is not None and not where(i):
                continue
            out.append(b - a)
        return out

    def has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def enclosing(self, name: str, inner: str) -> set[int]:
        """Indices of the spans called name that enclose a span called inner."""
        out = set()
        for n, _, _, p, _ in self.spans:
            if n != inner:
                continue
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p >= 0:
                out.add(p)
        return out

    def self_times(self) -> dict[str, float]:
        """Per span name, total duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, a, b, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += b - a
        totals: dict[str, float] = defaultdict(float)
        for i, (name, a, b, _, _) in enumerate(self.spans):
            totals[name] += (b - a) - child[i]
        return dict(totals)

    def layer_self_times(self) -> dict[str, float]:
        """Self time summed per layer, the span-name prefix before the dot."""
        out: dict[str, float] = defaultdict(float)
        for name, total in self.self_times().items():
            out[name.split(".", 1)[0]] += total
        return dict(out)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"], "spans": self.spans}, fh)
