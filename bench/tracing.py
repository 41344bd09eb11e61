"""In-memory spans and counters, recorded from the benchmark's own files.

A span marks one public call into a layer of hatguess: a name, a start, an
end and the span that was open when it began.  Calls made millions of times,
such as a rule's ``bulk_guesses``, would drown the trace as spans, so they
are aggregated instead: a count and a total in nanoseconds, kept on the span
that was open when they ran.  What the proxy spends around each such call is
measured once per pass (``proxy_cost_ns``) and taken out of span self times.

Nothing here edits hatguess.  A profile is traced by wrapping its rule in
``TracedRule``; calls the CLI makes internally are traced by swapping the
names it imports for timed wrappers for the length of a ``patched`` block.
"""

from __future__ import annotations

import contextlib
import statistics
from dataclasses import dataclass, field
from time import perf_counter_ns

from hatguess import StrategyProfile

_FREE = (0.0, 0.0)  # proxy cost of a counter that is not a proxied rule call


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start_ns: int
    end_ns: int = 0
    counters: dict[str, list[int]] = field(default_factory=dict)  # name -> [count, ns]

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "counters": {k: {"count": c, "ns": ns} for k, (c, ns) in self.counters.items()},
        }


class Tracer:
    """Spans of one traced pass, kept in memory until the run writes them out."""

    def __init__(self, proxy_cost: dict[str, tuple[float, float]] | None = None) -> None:
        # Counter name -> (outside, inside): the ns a proxied call costs
        # outside its timed window and inside it (see ``proxy_cost_ns``).
        self.proxy_cost = proxy_cost or {}
        root = Span(0, "pass", None, perf_counter_ns())
        self.spans = [root]
        self._open = [root]

    @contextlib.contextmanager
    def span(self, name: str):
        s = Span(len(self.spans), name, self._open[-1].id, perf_counter_ns())
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end_ns = perf_counter_ns()
            self._open.pop()

    def count(self, name: str, ns: int) -> None:
        """Add one aggregated call of ``ns`` nanoseconds to the open span."""
        slot = self._open[-1].counters.get(name)
        if slot is None:
            self._open[-1].counters[name] = [1, ns]
        else:
            slot[0] += 1
            slot[1] += ns

    def close(self) -> None:
        self.spans[0].end_ns = perf_counter_ns()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def counter(self, name: str, spans: list[Span] | None = None) -> tuple[int, float]:
        """(calls, total ns) of counter ``name`` over ``spans`` (default: all),
        net of what the proxy's own timing adds inside each call."""
        calls = total = 0
        for s in self.spans if spans is None else spans:
            slot = s.counters.get(name)
            if slot is not None:
                calls += slot[0]
                total += slot[1]
        return calls, total - calls * self.proxy_cost.get(name, _FREE)[1]

    def proxy_ns(self, span: Span) -> float:
        """What timing the calls aggregated on ``span`` cost the proxy itself."""
        return sum(
            c * sum(self.proxy_cost.get(name, _FREE)) for name, (c, _) in span.counters.items()
        )

    def self_ns(self, span: Span) -> float:
        """Duration of ``span`` minus its child spans, its aggregated calls and
        what the proxy spent outside them."""
        covered = sum(c.ns for c in self.children(span))
        for name, (c, ns) in span.counters.items():
            covered += ns + c * self.proxy_cost.get(name, _FREE)[0]
        return span.ns - covered

    def to_json_list(self) -> list[dict]:
        return [s.to_json_dict() for s in self.spans]


class TracedRule:
    """Stands in for a profile's guess rule and times each call into it.

    ``__call__`` is the per-player path, ``bulk_guesses`` the bit path; the
    proxy only offers ``bulk_guesses`` when the wrapped rule has one, so the
    sweeps take the same path with and without tracing.
    """

    def __init__(self, rule, tracer: Tracer):
        self._rule = rule
        self._tracer = tracer
        bulk = getattr(rule, "bulk_guesses", None)
        if bulk is not None:
            self._bulk = bulk
            self.bulk_guesses = self._timed_bulk

    def __call__(self, observer, view):
        t0 = perf_counter_ns()
        guess = self._rule(observer, view)
        self._tracer.count("strategies.rule", perf_counter_ns() - t0)
        return guess

    def _timed_bulk(self, red_mask: int) -> int:
        t0 = perf_counter_ns()
        guesses = self._bulk(red_mask)
        self._tracer.count("strategies.bulk", perf_counter_ns() - t0)
        return guesses


_CALLS, _ROUNDS = 20_000, 9  # about 0.2 s of calibration per traced pass


class _NoOpRule:
    def __call__(self, observer, view):
        return "B"

    def bulk_guesses(self, red_mask: int) -> int:
        return 0


def _loop_ns(fn, args: tuple) -> int:
    t0 = perf_counter_ns()
    for _ in range(_CALLS):
        fn(*args)
    return perf_counter_ns() - t0


def proxy_cost_ns() -> dict[str, tuple[float, float]]:
    """Per counter of ``TracedRule``, the ns one proxied call costs the
    tracer: (outside, inside) the window it times.

    Outside the window run the proxy's frame, its attribute lookups and
    ``Tracer.count``; without this they would be charged to the span's self
    time.  Inside it run half of each clock read and the call into the rule;
    they would be charged to the rule.  On a rule that does nothing, the
    counted time is the inside cost, and a loop of proxied calls takes the
    outside cost plus the counted time longer than the same loop of direct
    calls.  Medians over ``_ROUNDS`` rounds of ``_CALLS`` calls.
    """
    rule = _NoOpRule()
    paths = {"strategies.rule": ("__call__", (0, None)), "strategies.bulk": ("bulk_guesses", (0,))}
    costs = {}
    for counter, (method, args) in paths.items():
        outside, inside = [], []
        for _ in range(_ROUNDS):
            tracer = Tracer()
            proxied = getattr(TracedRule(rule, tracer), method)
            direct_ns = _loop_ns(getattr(rule, method), args)
            proxied_ns = _loop_ns(proxied, args)
            counted_ns = tracer.counter(counter)[1]
            outside.append((proxied_ns - direct_ns - counted_ns) / _CALLS)
            inside.append(counted_ns / _CALLS)
        costs[counter] = (statistics.median(outside), statistics.median(inside))
    return costs


def traced_profile(profile: StrategyProfile, tracer: Tracer) -> StrategyProfile:
    return StrategyProfile(profile.n, TracedRule(profile.guess_rule, tracer), profile.name)


def counted(tracer: Tracer, name: str, fn):
    """``fn`` with each call added to counter ``name`` of the open span."""

    def wrapper(*args, **kwargs):
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.count(name, perf_counter_ns() - t0)

    return wrapper


@contextlib.contextmanager
def patched(module, name: str, replacement):
    """Rebind ``module.name`` to ``replacement`` inside the block."""
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield original
    finally:
        setattr(module, name, original)
