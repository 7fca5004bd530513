"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from outside the program.  `Tracer.wrap` replaces a
callable at the name its caller looks it up by (a module global, or a class
attribute for methods), so a function imported by name into another module
has to be wrapped there, not at its home module.  Every wrapper is removed
again by `Tracer.restore`, which `Tracer.installed` guarantees on exit.

A span is a dict with an id, a name, the id of the span that was open when it
started (its parent), start and end times, and a dict of counts.  Self time
is a span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": self.clock(), "end": None, "attrs": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = self.clock()

    def wrap(self, owner, attr: str, name: str, measure=None) -> None:
        """Record a span named `name` around every call of owner.attr.

        measure(args, kwargs, result) returns counts to attach to the span.
        A missing attribute raises AttributeError: a layer the trace cannot
        reach must fail the run, not report zeros.
        """
        original = vars(owner).get(attr)
        if original is None:
            raise AttributeError(
                f"cannot trace {getattr(owner, '__name__', owner)}.{attr}: no such attribute")

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = original(*args, **kwargs)
            if measure is not None:
                rec["attrs"].update(measure(args, kwargs, result))
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, sites):
        """Wrap every (owner, attr, name, measure) site for the with-block."""
        try:
            for site in sites:
                self.wrap(*site)
            yield self
        finally:
            self.restore()


def children(spans) -> dict:
    """Map span id -> list of its child spans, in start order."""
    out = {s["id"]: [] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]].append(s)
    return out


def self_time(span: dict, kids) -> float:
    """Duration of span minus that of its child spans (one thread: children
    run one after another inside their parent)."""
    return (span["end"] - span["start"]) - sum(k["end"] - k["start"] for k in kids)


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, summed counts.

    Inclusive time skips spans nested inside a span of the same name, so a
    re-entrant layer is not counted twice.
    """
    by_id = {s["id"]: s for s in spans}
    kids = children(spans)
    out: dict[str, dict] = {}
    for s in spans:
        agg = out.setdefault(s["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += self_time(s, kids[s["id"]])
        p = s["parent"]
        while p is not None and by_id[p]["name"] != s["name"]:
            p = by_id[p]["parent"]
        if p is None:
            agg["s"] += s["end"] - s["start"]
        for key, val in s["attrs"].items():
            agg[key] = agg.get(key, 0) + val
    return out
