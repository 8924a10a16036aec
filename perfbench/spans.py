"""In-memory spans recorded around calls into the engine's layers.

A span has a name, start, end, parent span and the request id shared by all
spans of one request. Spans stay in memory while the traced phase runs and
are written out once, as JSON lines, when it ends. ``report`` turns them into
per-layer self times: a span's duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import time


@dataclasses.dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    request: int
    start: float
    end: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request = 0

    def new_request(self) -> int:
        self._request += 1
        return self._request

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, parent, self._request, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp.sid)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def wrap(self, owner, attr: str, name: str | None = None, observe=None, meter=None):
        """While the block runs, replace ``owner.attr`` (a module's function,
        a class's method or one object's method) by a wrapper that records a
        span ``name`` around each call (no span when ``name`` is None), so
        the engine's own code path is timed. ``observe(args, result, grew)``
        sees every call, for counts; ``grew`` is how much ``meter()`` rose
        over the call (0 without a ``meter``)."""
        orig = getattr(owner, attr)
        raw = vars(owner).get(attr)  # what to put back (None: it was inherited)

        def wrapped(*args, **kwargs):
            m0 = meter() if meter else 0
            if name is None:
                out = orig(*args, **kwargs)
            else:
                with self.span(name):
                    out = orig(*args, **kwargs)
            if observe is not None:
                observe(args, out, meter() - m0 if meter else 0)
            return out

        setattr(owner, attr, wrapped)
        try:
            yield
        finally:
            if raw is not None:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(dataclasses.asdict(s)) + "\n")

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child_cover: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                child_cover.setdefault(s.parent, []).append((s.start, s.end))
        out: dict[str, float] = {}
        for s in self.spans:
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(child_cover.get(s.sid, [])):
                lo, hi = max(lo, s.start), min(hi, s.end)
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - covered
        return out

    def totals(self) -> dict[str, float]:
        """Total wall time per span name, in seconds (children included)."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start)
        return out

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0) + 1
        return out
