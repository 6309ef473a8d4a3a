"""Span recording around the public functions of each signdeloop module.

The tracer wraps functions from outside the package: `install` replaces a
public function in every signdeloop module namespace that bound it, so the
package source stays untouched.  Spans are aggregated in memory per
(boundary, parent) as [calls, total seconds, self seconds], where self time
is a span's duration minus the durations of the spans it directly caused.
Count-only boundaries keep a call counter and no clock reads.

Which end-to-end metric each layer should move, and where:

* finite (Bijection construct/then/inverse/call), perms.sign_inversions and
  deloopings.action.<construction>, check_recognition, sign_from_delooping:
  wall_s on verify-s5 and verify-s4-census, a little on verify-s7, none on
  cli-oneshot;
* cycles.cycle_decompose/recompose and deloopings.alternating_kernel:
  wall_s on verify-s7; cycles.decompose_endofunction, the census and
  natural_isomorphism: wall_s and peak_rss_mb on verify-s4-census only;
* quotients.partition_from_relation and relation_evals: wall_s on
  verify-s4-census and verify-s7;
* perms.factor_into_transpositions, deloopings.orientation_action and the
  cli.* probes: latency_ms.p50 on cli-oneshot, and setup_s everywhere.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[tuple[str, str | None], list] = {}
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self._open = [None]  # names of the open spans, innermost last
        self._child = [0.0]  # time spent in direct children, per open span

    def span(self, name: str, fn, key=None):
        """Wrap fn so each call records a span; key(*args) feeds the
        distinct-input count of the boundary."""
        clock, spans, open_, child = self.clock, self.spans, self._open, self._child
        seen = self.distinct[name] if key is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if seen is not None:
                seen.add(key(*args))
            parent = open_[-1]
            open_.append(name)
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_.pop()
                inner = child.pop()
                child[-1] += elapsed
                record = spans.get((name, parent))
                if record is None:
                    record = spans[(name, parent)] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - inner

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def totals(self) -> dict[str, dict[str, float]]:
        """Per boundary: calls, total and self seconds summed over parents,
        and distinct inputs where recorded."""
        out: dict[str, dict[str, float]] = {}
        for (name, _parent), (calls, total, self_s) in self.spans.items():
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += calls
            agg["total_s"] += total
            agg["self_s"] += self_s
        for name, keys in self.distinct.items():
            if name in out:
                out[name]["distinct"] = len(keys)
        for name, calls in self.counts.items():
            out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            out[name]["calls"] += calls
        return out

    def table(self) -> list[dict]:
        """The raw (boundary, parent) aggregates, for the trace record."""
        return [
            {"boundary": name, "parent": parent, "calls": c, "total_s": t, "self_s": s}
            for (name, parent), (c, t, s) in sorted(
                self.spans.items(), key=lambda kv: -kv[1][1]
            )
        ]


def _bijection_key(e):
    return (e.domain.elements, e.codomain.elements, e.images)


def _rebind(modules, original, replacement) -> None:
    """Point every module-level name bound to `original` at `replacement`."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of finite, perms, cycles, quotients,
    deloopings, verify and cli in this process."""
    import signdeloop
    from signdeloop import cli, cycles, deloopings, finite, perms, quotients, verify

    modules = (signdeloop, finite, perms, cycles, quotients, deloopings, verify, cli)

    def span(module, attr, key=None):
        original = getattr(module, attr)
        layer = module.__name__.rsplit(".", 1)[1]
        _rebind(modules, original, tracer.span(f"{layer}.{attr}", original, key))

    bijection = finite.Bijection
    bijection.__init__ = tracer.span("finite.Bijection", bijection.__init__)
    bijection.then = tracer.counter("finite.then", bijection.then)
    bijection.inverse = tracer.counter("finite.inverse", bijection.inverse)
    bijection.__call__ = tracer.counter("finite.call", bijection.__call__)
    span(finite, "enumerate_bijections")

    span(perms, "sign_inversions", key=lambda e: (e.domain.elements, e.images))
    span(perms, "factor_into_transpositions")

    for attr in ("cycle_decompose", "recompose", "decompose_endofunction"):
        span(cycles, attr)

    original_pfr = quotients.partition_from_relation

    def counted_partition(X, rel):
        return original_pfr(X, tracer.counter("quotients.relation_evals", rel))

    _rebind(
        modules,
        original_pfr,
        tracer.span("quotients.partition_from_relation", functools.wraps(original_pfr)(counted_partition)),
    )

    for attr in (
        "check_recognition",
        "orientation_action",
        "natural_isomorphism",
        "alternating_kernel",
        "exhaustive_fixed_points",
    ):
        span(deloopings, attr)
    original_sfd = deloopings.sign_from_delooping
    _rebind(modules, original_sfd, tracer.counter("deloopings.sign_from_delooping", original_sfd))

    for cname, ctor in list(deloopings.CONSTRUCTIONS.items()):
        traced = _traced_constructor(tracer, cname, ctor)
        deloopings.CONSTRUCTIONS[cname] = traced
        _rebind(modules, ctor, traced)

    span(cli, "run_command")


def _traced_constructor(tracer: Tracer, cname: str, ctor):
    @functools.wraps(ctor)
    def build(n, *args, **kwargs):
        family = ctor(n, *args, **kwargs)
        action = tracer.span(f"deloopings.action.{cname}", family.action, key=_bijection_key)
        return dataclasses.replace(family, action=action)

    return build
