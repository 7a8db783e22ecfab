"""Outside-in tracing of secthru: spans around the calls that cross module boundaries.

`Tracer.install()` replaces the module attributes the solvers look up at call
time (for example `full_csi.power_grid`, which `mean_power_full` resolves on
every call) with timing wrappers, and `Tracer.uninstall()` puts the original
objects back. Nothing under `src/` is edited. Spans stay in memory; the caller
writes them out when the run ends. `layer_metrics` turns the spans of one pass
into the per-layer metrics listed in BENCHMARK.json.
"""

import contextlib
import functools
import importlib
import inspect
import statistics
import time

import numpy as np

# (owner, attribute, span name, kind). The owner is "module" or "module:Class".
# One function imported into several modules is wrapped at each of them, which
# is how a call site is told apart: full_csi.bisect_power_lanes is reached only
# from power_grid, _region's from the main-CSI quadrature, and main_csi's and
# ergodic's from the main-CSI policy tables.
TARGETS = (
    ("secthru.full_csi", "throughput_full", "full_csi.throughput_full", None),
    ("secthru.full_csi", "policy_surface_full", "full_csi.policy_surface_full", None),
    ("secthru.full_csi", "build_policy_full", "full_csi.build_policy_full", None),
    ("secthru.full_csi", "mean_power_full", "full_csi.mean_power_full", None),
    ("secthru.full_csi", "power_grid", "full_csi.power_grid", "states"),
    ("secthru.full_csi", "transmit_region_expectation", "region.transmit", "panels"),
    ("secthru.full_csi", "bisect_power_lanes", "region.lanes.full", "lanes"),
    ("secthru.full_csi", "bisect_root", "numerics.bisect_root", "root"),
    ("secthru.main_csi", "throughput_main", "main_csi.throughput_main", None),
    ("secthru.main_csi", "build_policy_main", "main_csi.build_policy_main", None),
    ("secthru.main_csi", "mean_power_main", "main_csi.mean_power_main", None),
    ("secthru.main_csi", "alpha_threshold", "main_csi.alpha_threshold", None),
    ("secthru.main_csi", "main_region_expectation", "region.main", "panels"),
    ("secthru.main_csi", "bisect_power_lanes", "region.lanes.table", "lanes"),
    ("secthru.main_csi", "bisect_root", "numerics.bisect_root", "root"),
    ("secthru._region", "bisect_power_lanes", "region.lanes.main", "lanes"),
    ("secthru.ergodic", "solve_full", "ergodic.solve", None),
    ("secthru.ergodic", "solve_main", "ergodic.solve", None),
    ("secthru.ergodic", "transmit_region_expectation", "region.transmit", "panels"),
    ("secthru.ergodic", "main_region_expectation", "region.main", "panels"),
    ("secthru.ergodic", "bisect_power_lanes", "region.lanes.table", "lanes"),
    ("secthru.ergodic", "bisect_root", "numerics.bisect_root", "root"),
    ("secthru.queuesim", "simulate_queue", "queuesim.simulate_queue", "frames"),
    ("secthru.queuesim", "lindley_queue", "queuesim.lindley_queue", None),
    ("secthru.queuesim", "estimate_decay", "queuesim.estimate_decay", None),
    ("secthru.model:FadingLaw", "sample", "model.sample", None),
)

POLICY_EVAL = "queuesim.policy_eval"

# spans that are one evaluation of a calibration's mean-power residual: the
# public mean-power functions, and the ergodic quadratures (whose mean-power
# helpers are private and not wrapped)
_CALIBRATION_EVALS = {
    "full_csi.mean_power_full",
    "main_csi.mean_power_main",
    "region.transmit",
    "region.main",
}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "child_s", "attrs")

    def __init__(self, span_id, parent, name, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "self_s": self.self_s,
                **self.attrs}


def _resolve_owner(spec: str):
    module_name, _, class_name = spec.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._patched = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def take_spans(self) -> list:
        """Hand over the spans recorded so far and start an empty list."""
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, fn, name: str, kind=None):
        """A wrapper of fn that records one span per call, with kind-specific counts."""
        tracer = self
        sig = inspect.signature(fn) if kind in ("lanes", "root", "states", "frames") else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter = [0]
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                key = {"lanes": "gain_at", "root": "f"}.get(kind)
                if key is not None:
                    inner = bound.arguments[key]

                    def counted(x):
                        counter[0] += 1
                        return inner(x)

                    bound.arguments[key] = counted
                args, kwargs = bound.args, bound.kwargs
            span = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if kind == "lanes":
                span.attrs["sweeps"] = counter[0]
                span.attrs["lanes"] = int(bound.arguments["n_lanes"])
            elif kind == "root":
                span.attrs["f_evals"] = counter[0]
                span.attrs["calibration"] = bound.arguments.get("f_tol", 0.0) > 0.0
            elif kind == "panels":
                span.attrs["panels"] = int(out.panels)
            elif kind == "states":
                span.attrs["states"] = int(np.broadcast(bound.arguments["z_m"],
                                                        bound.arguments["z_e"]).size)
            elif kind == "frames":
                span.attrs["frames"] = int(bound.arguments["frames"])
                span.attrs["mode"] = bound.arguments["policy"].csi_mode
            return out

        return wrapper

    def install(self) -> None:
        self.missing = []
        for owner_spec, attr, name, kind in TARGETS:
            owner = _resolve_owner(owner_spec)
            original = getattr(owner, attr, None)
            if original is None:
                # a later refactor removed this boundary; its metrics read 0
                self.missing.append(f"{owner_spec}.{attr}")
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, kind))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def originals() -> dict:
    """The objects at every traced attribute right now, keyed by 'owner.attr'."""
    out = {}
    for owner_spec, attr, _, _ in TARGETS:
        owner = _resolve_owner(owner_spec)
        if hasattr(owner, attr):
            out[f"{owner_spec}.{attr}"] = getattr(owner, attr)
    return out


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _max(values) -> float:
    return float(max(values)) if values else 0.0


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0.0 else 0.0


def layer_metrics(spans: list, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass whose commands took wall_s seconds.

    Every metric is present; a layer the pass never reached reads 0.
    """
    by_name = {}
    children = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        children.setdefault(span.parent, []).append(span)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in named(name))

    def descendants(span, name):
        count = 0
        stack = list(children.get(span.id, []))
        while stack:
            node = stack.pop()
            count += node.name == name
            stack.extend(children.get(node.id, []))
        return count

    m = {}
    m["cli.overhead_s"] = wall_s - sum(s.duration for s in children.get(None, []))

    for mode, row, mean_power in (
        ("full_csi", "full_csi.throughput_full", "full_csi.mean_power_full"),
        ("main_csi", "main_csi.throughput_main", "main_csi.mean_power_main"),
    ):
        rows = [s.duration for s in named(row)]
        m[f"{mode}.row_s.median"] = _median(rows)
        m[f"{mode}.row_s.max"] = _max(rows)
        m[f"{mode}.row_s.n"] = len(rows)
        calls = [descendants(s, mean_power) for s in named(row)]
        m[f"{mode}.mean_power.calls_per_row"] = _median([c for c in calls if c > 0])
        m[f"{mode}.mean_power.s"] = total(mean_power)

    m["full_csi.surface_s"] = total("full_csi.policy_surface_full")
    m["full_csi.build_policy_s"] = total("full_csi.build_policy_full")
    states = sum(s.attrs["states"] for s in named("full_csi.power_grid"))
    m["full_csi.power_grid.states"] = states
    m["full_csi.power_grid.states_per_s"] = _rate(states, total("full_csi.power_grid"))
    m["main_csi.alpha_threshold.s"] = total("main_csi.alpha_threshold")
    m["main_csi.build_policy_s"] = total("main_csi.build_policy_main")

    solves = [s.duration for s in named("ergodic.solve")]
    m["ergodic.row_s.median"] = _median(solves)
    m["ergodic.row_s.n"] = len(solves)

    for site in ("full", "main", "table"):
        lanes = named(f"region.lanes.{site}")
        sweeps = [s.attrs["sweeps"] for s in lanes]
        m[f"region.lanes.sweeps_per_solve.{site}.median"] = _median(sweeps)
        m[f"region.lanes.sweeps_per_solve.{site}.max"] = _max(sweeps)
        m[f"region.lanes.lane_evals.{site}"] = sum(s.attrs["sweeps"] * s.attrs["lanes"]
                                                   for s in lanes)
        m[f"region.lanes.self_s.{site}"] = sum(s.self_s for s in lanes)

    for region in ("transmit", "main"):
        quads = named(f"region.{region}")
        panels = [s.attrs["panels"] for s in quads]
        m[f"region.{region}.panels.median"] = _median(panels)
        m[f"region.{region}.panels.max"] = _max(panels)
        m[f"region.{region}.s"] = sum(s.duration for s in quads)
        m[f"region.{region}.self_s"] = sum(s.self_s for s in quads)

    f_evals = []
    probes = []
    for root in named("numerics.bisect_root"):
        if not root.attrs["calibration"]:
            continue
        f_evals.append(root.attrs["f_evals"])
        probes.append(sum(1 for s in children.get(root.parent, [])
                          if s.start < root.start and s.name in _CALIBRATION_EVALS))
    m["numerics.bisect_root.f_evals_per_calibration"] = _median(f_evals)
    m["numerics.bisect_root.bracket_probes_per_calibration"] = _median(probes)

    sims = named("queuesim.simulate_queue")
    for mode in ("full", "main"):
        runs = [s for s in sims if s.attrs["mode"] == mode]
        m[f"queuesim.frames_per_s.{mode}"] = _rate(sum(s.attrs["frames"] for s in runs),
                                                   sum(s.duration for s in runs))
    m["queuesim.policy_eval.s"] = total(POLICY_EVAL)
    m["queuesim.lindley.s"] = total("queuesim.lindley_queue")
    m["queuesim.tail_fit.s"] = sum(s.self_s for s in sims) + total("queuesim.estimate_decay")
    m["model.sample.s"] = total("model.sample")
    return m
