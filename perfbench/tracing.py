"""In-memory span tracer and the hooks that time calls into each coopbc module.

Hooks wrap module attributes from outside the package, so the library carries
no tracing code.  Each hook is resolved by module and attribute name when the
traced run starts; a name that no longer exists (a kernel deleted or renamed
by a refactor) is reported as absent and its layer reads 0 instead of the run
crashing.  A wrapper replaces the attribute in its own module and in every
other ``coopbc`` module that imported the same function under the same name,
unless another hook claims that module's binding (``pareto_filter`` is timed
separately as called from ``regions`` and from ``oracle``).

Spans are recorded only while an operation's root span is open, so the
benchmark's own output checks, which call the same functions, are not timed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

ROOT = "bench.op"


class Tracer:
    """Span tree of one traced run, kept in memory until the run ends.

    A span is [name, kernel, start, end, parent, op, child_time, counts].
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1

    @property
    def recording(self) -> bool:
        return bool(self._stack)

    def open(self, name: str, kernel: Optional[str] = None) -> int:
        if name == ROOT:
            self._op += 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, kernel, time.perf_counter(), 0.0, parent, self._op, 0.0, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span[0]} closed out of order")
        if span[4] >= 0:
            self.spans[span[4]][6] += span[3] - span[2]

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def as_records(self) -> list[dict]:
        keys = ("name", "kernel", "start", "end", "parent", "op", "child_s", "counts")
        return [dict(zip(keys, s)) for s in self.spans]


class NullTracer:
    """Stand-in for untraced runs: bench-level spans cost one no-op context."""

    @contextmanager
    def span(self, name: str):
        yield


@dataclass(frozen=True)
class Hook:
    """Time calls to ``module.attr`` as span ``span``.

    ``count`` maps the bound call arguments and the result to counters stored
    on the span.  ``kernel`` marks an ``_accel`` kernel, whose attribute name
    is kept on the span for the per-kernel figures.
    """

    span: str
    module: str
    attr: str
    count: Optional[Callable[[dict, object], dict]] = None
    kernel: bool = False

    @property
    def where(self) -> str:
        return f"{self.module}.{self.attr}"


def _grid_points(a, _):
    return {"points": int(a["grid_size"])}


def _written_bytes(a, _):
    return {"bytes": len(str(a["text"]).encode())}


def _corner_scan(a, _):
    joints, m = a["t_combos"].shape
    return {"joints": int(joints), "ops": int(joints * m)}


def _general_scan(a, _):
    m = a["p_u"].shape[0]
    joints = a["row_grid"].shape[0] ** m
    return {"joints": int(joints), "ops": int(joints * m)}


def _pareto(a, result):
    return {"points_in": int(len(a["r1"])), "survivors": int(len(result))}


def _codebook(a, _):
    cfg = a["cfg"]
    return {"codewords": int(cfg.nu1 * cfg.nu2)}


def _full_decode(a, _):
    trials = a["ys"].shape[0]
    book = a["codebook"]
    scores = trials * book.shape[0]
    return {"scores": int(scores), "bytes": int(trials * book.nbytes),
            "ops": int(scores * book.shape[1])}


def _restricted_decode(a, _):
    scores = int(a["cand_count"][a["cand_of"]].sum())
    return {"scores": scores, "ops": scores * int(a["codebook"].shape[1])}


HOOKS = (
    Hook("cli", "coopbc.cli", "main"),
    Hook("family.build", "coopbc.gaussian", "gaussian_family"),
    Hook("family.build", "coopbc.becbsc", "becbsc_family"),
    Hook("regions.sweep", "coopbc.regions", "inner_boundary", _grid_points),
    Hook("regions.sweep", "coopbc.regions", "outer_boundary", _grid_points),
    Hook("regions.threshold", "coopbc.regions", "threshold_alpha"),
    Hook("regions.threshold", "coopbc.gaussian", "alpha_th_closed"),
    Hook("regions.threshold", "coopbc.becbsc", "q_threshold"),
    Hook("numerics.bisect", "coopbc.numerics", "bisect_monotone"),
    Hook("regions.pareto", "coopbc.regions", "pareto_filter", _pareto),
    Hook("channel.mc_scan", "coopbc.channel", "is_more_capable"),
    Hook("cli.emit", "coopbc.regions", "boundary_to_csv"),
    Hook("cli.emit", "coopbc.regions", "boundary_to_json"),
    Hook("cli.emit", "coopbc.regions", "thresholds_to_csv"),
    Hook("cli.emit", "coopbc.cli", "_write", _written_bytes),
    Hook("oracle", "coopbc.oracle", "oracle_both"),
    Hook("oracle.scan", "coopbc._accel", "corner_scan", _corner_scan, kernel=True),
    Hook("oracle.scan", "coopbc.oracle", "_general_scan_chunk", _general_scan),
    Hook("oracle.pareto", "coopbc.oracle", "pareto_filter", _pareto),
    Hook("dnfsim", "coopbc.dnfsim", "simulate"),
    Hook("dnfsim.codebook", "coopbc.dnfsim", "build_superposition_codebook", _codebook),
    Hook("dnfsim.draw", "coopbc.dnfsim", "_draw_trials_discrete"),
    Hook("dnfsim.draw", "coopbc.dnfsim", "_draw_trials_gaussian"),
    Hook("dnfsim.decode_user1", "coopbc._accel", "decode_map_int", _full_decode, kernel=True),
    Hook("dnfsim.decode_user1", "coopbc._accel", "decode_sq", _full_decode, kernel=True),
    Hook("dnfsim.decode_user2", "coopbc._accel", "decode_map_float", _restricted_decode,
         kernel=True),
    Hook("dnfsim.decode_user2", "coopbc._accel", "decode_sq_restricted", _restricted_decode,
         kernel=True),
)

KERNELS = tuple(h.attr for h in HOOKS if h.kernel)


class Hooks:
    """Installed wrappers; ``absent`` names every hook that could not be resolved
    or whose counters no longer match the call."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, hook: Hook, fn):
        tracer = self.tracer
        kernel = hook.attr if hook.kernel else None
        sig = inspect.signature(fn) if hook.count else None

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer.open(hook.span, kernel)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if sig is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    tracer.spans[idx][7] = hook.count(bound.arguments, result)
                except (KeyError, AttributeError, TypeError, IndexError):
                    self.absent.add(f"counts of {hook.where}")
            return result

        return hooked

    def install(self) -> None:
        claimed = {(h.module, h.attr) for h in HOOKS}
        for hook in HOOKS:
            try:
                fn = getattr(importlib.import_module(hook.module), hook.attr)
            except (ImportError, AttributeError):
                fn = None
            if not callable(fn):
                self.absent.add(hook.where)
                continue
            wrapped = self._wrap(hook, fn)
            for name, mod in list(sys.modules.items()):
                if name != hook.module and (
                    not name.startswith("coopbc") or (name, hook.attr) in claimed
                ):
                    continue
                if getattr(mod, hook.attr, None) is fn:
                    self._patches.append((mod, hook.attr, fn))
                    setattr(mod, hook.attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


# per-layer metric -> (unit, span name, what): "s" inclusive time of the
# outermost spans of that name, "self" time not covered by child spans,
# "calls" span count, any other value sums that counter
LAYER_METRICS = {
    "family.build_s": ("s", "family.build", "s"),
    "family.builds": ("count", "family.build", "calls"),
    "regions.sweep_s": ("s", "regions.sweep", "s"),
    "regions.sweep_points": ("count", "regions.sweep", "points"),
    "regions.threshold_s": ("s", "regions.threshold", "s"),
    "numerics.bisect_s": ("s", "numerics.bisect", "s"),
    "numerics.bisect_calls": ("count", "numerics.bisect", "calls"),
    "regions.pareto_s": ("s", "regions.pareto", "s"),
    "channel.mc_scan_s": ("s", "channel.mc_scan", "s"),
    "cli.emit_s": ("s", "cli.emit", "s"),
    "cli.emit_bytes": ("bytes", "cli.emit", "bytes"),
    "cli.self_s": ("s", "cli", "self"),
    "oracle.scan_s": ("s", "oracle.scan", "s"),
    "oracle.scan_calls": ("count", "oracle.scan", "calls"),
    "oracle.joints_scanned": ("count", "oracle.scan", "joints"),
    "oracle.pareto_s": ("s", "oracle.pareto", "s"),
    "oracle.pareto_points_in": ("count", "oracle.pareto", "points_in"),
    "oracle.pareto_survivors": ("count", "oracle.pareto", "survivors"),
    "oracle.merge_s": ("s", "oracle.merge", "s"),
    "oracle.deviation_s": ("s", "oracle.deviation", "s"),
    "oracle.self_s": ("s", "oracle", "self"),
    "dnfsim.codebook_s": ("s", "dnfsim.codebook", "s"),
    "dnfsim.codewords": ("count", "dnfsim.codebook", "codewords"),
    "dnfsim.draw_s": ("s", "dnfsim.draw", "s"),
    "dnfsim.decode_user1_s": ("s", "dnfsim.decode_user1", "s"),
    "dnfsim.user1_scores": ("count", "dnfsim.decode_user1", "scores"),
    "dnfsim.user1_bytes": ("bytes_computed", "dnfsim.decode_user1", "bytes"),
    "dnfsim.decode_user2_s": ("s", "dnfsim.decode_user2", "s"),
    "dnfsim.user2_scores": ("count", "dnfsim.decode_user2", "scores"),
    "dnfsim.self_s": ("s", "dnfsim", "self"),
    "bench.self_s": ("s", ROOT, "self"),
}


def _relabel_merge(spans: list[list]) -> None:
    """The last two Pareto filters inside each oracle_both call merge the
    per-chunk survivors; every one before them filters one chunk."""
    filters: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[0] in ("oracle.pareto", "oracle.merge") and s[4] >= 0 and spans[s[4]][0] == "oracle":
            filters.setdefault(s[4], []).append(i)
    for kids in filters.values():
        for rank, i in enumerate(reversed(kids)):
            spans[i][0] = "oracle.merge" if rank < 2 else "oracle.pareto"


def layer_metrics(tracer: Tracer, untraced_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures of a traced run, plus the trace's own bookkeeping."""
    spans = tracer.spans
    _relabel_merge(spans)
    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    counters: dict[tuple[str, str], float] = {}
    kernel: dict[tuple[str, str], float] = {}
    for s in spans:
        name, kname, t0, t1, parent, _, child, counts = s
        dur = t1 - t0
        self_time[name] = self_time.get(name, 0.0) + dur - child
        outermost = True
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                outermost = False
                break
            p = spans[p][4]
        if outermost:
            inclusive[name] = inclusive.get(name, 0.0) + dur
        counters[(name, "calls")] = counters.get((name, "calls"), 0) + 1
        for key, val in (counts or {}).items():
            counters[(name, key)] = counters.get((name, key), 0) + val
        if kname is not None:
            for key, val in (("s", dur), ("calls", 1), *(counts or {}).items()):
                kernel[(kname, key)] = kernel.get((kname, key), 0) + val

    out: dict[str, tuple[float, str]] = {}
    for metric, (unit, name, what) in LAYER_METRICS.items():
        if what == "s":
            value = inclusive.get(name, 0.0)
        elif what == "self":
            value = self_time.get(name, 0.0)
        else:
            value = counters.get((name, what), 0)
        out[metric] = (value, unit)
    points_in = counters.get(("oracle.pareto", "points_in"), 0)
    survivors = counters.get(("oracle.pareto", "survivors"), 0)
    out["oracle.pareto_keep_ratio"] = (survivors / points_in if points_in else 0.0, "ratio")
    for k in KERNELS:
        out[f"accel.{k}_s"] = (kernel.get((k, "s"), 0.0), "s")
        out[f"accel.{k}_calls"] = (kernel.get((k, "calls"), 0), "count")
        out[f"accel.{k}_ops"] = (kernel.get((k, "ops"), 0), "ops")
    wall = inclusive.get(ROOT, 0.0)
    out["trace.wall_s"] = (wall, "s")
    out["trace.untraced_s"] = (untraced_s, "s")
    out["trace.overhead_pct"] = (100.0 * (wall / untraced_s - 1.0) if untraced_s else 0.0, "%")
    out["trace.spans"] = (len(spans), "count")
    return out

