"""Spans and counts at supercong's layer boundaries, recorded from outside.

The tracer replaces public names with wrappers where callers look them up
(module globals bound by ``from ... import`` and class operators), so the
program under test is not edited.  Spans are kept in memory as
``[name, start, end, parent_index]`` and reduced to per-layer metrics after
the run; counts are plain integers that repeat exactly between runs.
"""

from __future__ import annotations

import sys
import time

# span name -> (module, attribute) of the public function it wraps
SPANS = {
    "registry.load": ("supercong.registry", "load_registry"),
    "harness.plan": ("supercong.harness", "plan_jobs"),
    "harness.run": ("supercong.harness", "run"),
    "harness.execute": ("supercong.harness", "execute_job"),
    "padic": ("supercong.padic", "verify_padic_case"),
    "analytic": ("supercong.analytic", "verify_analytic_case"),
    "engine.congruence": ("supercong.engine", "verify_congruence"),
    "engine.pair": ("supercong.engine", "verify_conjecture_pair"),
    "engine.parametric": ("supercong.engine", "verify_parametric"),
    "engine.specialized": ("supercong.engine", "verify_identity_specialized"),
    "engine.oracle": ("supercong.engine", "oracle_congruence"),
}

# spans whose union is the time attributed to a verification lane
LANE_PREFIXES = ("engine.", "padic", "analytic")

# spans that try a fast route first and call the oracle only on failure
FAST_ROUTES = ("engine.congruence", "engine.parametric")

COUNTS = (
    "polys.mul.calls",
    "polys.mul.coeff_products",
    "polys.divrem.calls",
    "paramfield.ops",
    "paramfield.gcd.calls",
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            record = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced


def _rebind(original, replacement) -> int:
    """Point every supercong module global bound to ``original`` at
    ``replacement``; returns how many bindings changed."""
    changed = 0
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("supercong") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed += 1
    return changed


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported supercong package."""
    import supercong.harness  # noqa: F401  (imports every lane module)
    from supercong import paramfield, polys

    for name, (modname, attr) in SPANS.items():
        original = getattr(sys.modules[modname], attr)
        if not _rebind(original, tracer.wrap(name, original)):
            raise RuntimeError(f"no binding of {modname}.{attr} to trace")

    counts = tracer.counts
    laurent = polys.LaurentPoly
    mul = laurent.__mul__

    def counted_mul(self, other):
        counts["polys.mul.calls"] += 1
        width = len(other.coeffs) if isinstance(other, laurent) else 1
        counts["polys.mul.coeff_products"] += len(self.coeffs) * width
        return mul(self, other)

    laurent.__mul__ = counted_mul

    divrem = polys.poly_divrem

    def counted_divrem(a, b):
        counts["polys.divrem.calls"] += 1
        return divrem(a, b)

    _rebind(divrem, counted_divrem)

    param = paramfield.ParamRational
    for op in ("__add__", "__radd__", "__mul__", "__rmul__"):
        setattr(param, op, _counted(counts, "paramfield.ops", getattr(param, op)))
    _rebind(paramfield.param_poly_gcd,
            _counted(counts, "paramfield.gcd.calls", paramfield.param_poly_gcd))


def _counted(counts: dict, key: str, fn):
    def counted(*args):
        counts[key] += 1
        return fn(*args)

    return counted


# ---------------------------------------------------------------------------
# reduction of a trace to per-layer metrics
# ---------------------------------------------------------------------------

def _union(intervals) -> float:
    total, end = 0.0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def layer_times(spans: list) -> dict:
    """name -> {"calls", "total_s", "self_s"}; self time is a span's
    duration minus the part of it that its child spans cover."""
    children: dict[int, list] = {}
    for i, (_, start, end, parent) in enumerate(spans):
        children.setdefault(parent, []).append((start, end))
    out: dict[str, dict] = {}
    for i, (name, start, end, _) in enumerate(spans):
        covered = _union(
            (max(lo, start), min(hi, end)) for lo, hi in children.get(i, ()) if hi > start and lo < end
        )
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - covered
    return out


def lane_coverage(spans: list) -> float:
    """Share of the ``harness.run`` span time covered by lane spans."""
    run = sum(end - start for name, start, end, _ in spans if name == "harness.run")
    lanes = _union(
        (start, end) for name, start, end, _ in spans if name.startswith(LANE_PREFIXES)
    )
    return lanes / run if run else 0.0


def fast_pass_ratio(spans: list) -> float:
    """Fast-route spans decided without an oracle child, over all fast-route
    spans (1.0 when no instance took a fast route)."""
    with_oracle = {parent for name, _, _, parent in spans if name == "engine.oracle"}
    fast = [i for i, span in enumerate(spans) if span[0] in FAST_ROUTES]
    if not fast:
        return 1.0
    return sum(1 for i in fast if i not in with_oracle) / len(fast)


def trace_metrics(spans: list, counts: dict) -> dict:
    """The per-layer metric values of one traced run, by metric name."""
    times = layer_times(spans)

    def get(name, field):
        return times.get(name, {}).get(field, 0)

    out = {
        "registry.load_s": get("registry.load", "total_s"),
        "harness.plan_s": get("harness.plan", "total_s"),
        "harness.execute.calls": get("harness.execute", "calls"),
        "harness.execute_s": get("harness.execute", "total_s"),
        "harness.run.self_s": get("harness.run", "self_s"),
    }
    for span in SPANS:
        if span.startswith(LANE_PREFIXES):
            out[f"{span}.calls"] = get(span, "calls")
            out[f"{span}.self_s"] = get(span, "self_s")
    out["engine.fast_pass_ratio"] = fast_pass_ratio(spans)
    out["trace.lane_coverage"] = lane_coverage(spans)
    out.update(counts)
    return out
