"""In-memory spans and counters for the traced benchmark run.

The traced run patches nsslab from the outside: every public function of
the eight modules, a few methods and the closures of the objective
factories and Langevin builders are replaced by wrappers that open a span
(name, start, end, parent) and bump counters.  Spans live in flat arrays
until the run ends; :func:`span_stats` then reduces them to per-name call
counts, inclusive time and self time.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("compfun", "sde", "lyapcert", "objectives", "lqr", "langevin",
          "nssmc", "cli")

# cli functions that enclose a whole run; they are not layer work, so the
# time they cover counts as unattributed unless a layer span covers it
GLUE = {"main", "run"}

# spans named after the metric they feed rather than the function: the
# five CSV writers plus the summary writer, and the config loader; the
# private ones among them are wrapped too
RENAMED = {**{f: "cli.write" for f in (
    "cli._csv_table", "cli._write_summary", "nssmc.gain_curve_to_csv",
    "lyapcert.certificate_to_csv", "objectives.envelope_to_csv",
    "sde.ensemble_to_csv")}, "cli._load_config": "cli.load"}

OBJECTIVE_FACTORIES = {"objectives.quadratic_objective",
                       "objectives.logistic_objective", "lqr.lqr_objective"}


class SpanLog:
    """Flat span arrays plus named counters; one log per traced run.

    Spans are recorded in start order, so a parent always has a smaller
    index than its children.  ``outer`` marks spans with no enclosing span
    of the same name, which keeps recursive calls from counting twice.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._depth: list[int] = []

    def name_index(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return i

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outer.append(self._depth[nid] == 0)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[self.name_id[idx]] -= 1

    def count(self, key: str, value: float = 1) -> None:
        self.counters[key] += value


@dataclasses.dataclass(frozen=True)
class SpanStat:
    calls: int
    total_s: float  # outermost spans of the name only
    self_s: float


def self_times(parent, start, end) -> np.ndarray:
    """Span duration minus the time covered by its direct children.

    Spans from one thread nest properly and siblings do not overlap, so
    the covered time is the sum of the children's durations.
    """
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child],
                          minlength=dur.size)
    return dur - covered


def span_stats(log: SpanLog) -> dict[str, SpanStat]:
    if not len(log.start):
        return {}
    names = np.frombuffer(log.name_id, dtype=np.int32)
    start = np.frombuffer(log.start)
    end = np.frombuffer(log.end)
    dur = end - start
    selfs = self_times(log.parent, start, end)
    outer = np.frombuffer(log.outer, dtype=np.int8).astype(bool)
    k = len(log.names)
    calls = np.bincount(names, minlength=k)
    total = np.bincount(names, weights=np.where(outer, dur, 0.0), minlength=k)
    self_sum = np.bincount(names, weights=selfs, minlength=k)
    return {n: SpanStat(int(calls[i]), float(total[i]), float(self_sum[i]))
            for i, n in enumerate(log.names)}


def root_covered_s(log: SpanLog) -> float:
    """Time covered by spans that have no parent: the layer spans directly
    under the untraced cli glue."""
    if not len(log.start):
        return 0.0
    parent = np.frombuffer(log.parent, dtype=np.int32)
    dur = np.frombuffer(log.end) - np.frombuffer(log.start)
    return float(dur[parent < 0].sum())


def _nsteps(T: float, dt: float) -> int:
    # the integrator's own step count rule (sde._simulate_batch)
    n = int(round(T / dt))
    if abs(n * dt - T) > 1e-9 * max(1.0, T):
        n = int(math.ceil(T / dt - 1e-12))
    return n


def _rows(z, dim: int) -> int:
    return max(1, int(np.size(z)) // dim)


class Tracer:
    """Context manager that installs the wrappers into an imported nsslab
    and restores every original binding on exit."""

    def __init__(self, log: SpanLog):
        self.log = log
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def span(self, name: str, fn, hook=None):
        """Wrap ``fn`` in a span; ``hook(args, kwargs, result)`` may count
        and may return a replacement result."""
        log = self.log
        nid = log.name_index(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = log.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                log.close(idx)
            if hook is not None:
                replaced = hook(args, kwargs, result)
                if replaced is not None:
                    result = replaced
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        import importlib
        mods = {name: importlib.import_module(f"nsslab.{name}")
                for name in LAYERS}
        hooks = self._hooks(mods)
        wrapped: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                full = f"{layer}.{attr}"
                if (layer == "cli" and attr in GLUE) or \
                        (attr.startswith("_") and full not in RENAMED):
                    continue
                wrapped[id(fn)] = self.span(RENAMED.get(full, full), fn,
                                            hooks.get(full))
        # rebind at every import site, including ``from .x import f`` names
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and id(val) in wrapped:
                    self._set(mod, attr, wrapped[id(val)])
        self._wrap_methods(mods)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)
        return False

    def _wrap_methods(self, mods) -> None:
        log = self.log
        compfun, objectives, lyapcert = (mods["compfun"], mods["objectives"],
                                         mods["lyapcert"])
        cls = compfun.ScalarClassFunction
        self._set(cls, "__call__", self.span("compfun.class_fn",
                                             cls.__dict__["__call__"]))

        obj_hess = objectives.Objective.__dict__["hessian_at"]
        fd_hess = {}

        def hessian_at(obj, z):
            if obj.hessian is not None:
                return obj_hess(obj, z)
            log.count(f"objectives.hessian_fd.calls.{obj.label}")
            fn = fd_hess.get(obj.label)
            if fn is None:
                fn = fd_hess[obj.label] = self.span(
                    f"objectives.oracle.{obj.label}", obj_hess)
            return fn(obj, z)

        self._set(objectives.Objective, "hessian_at", hessian_at)

        size_fn = lyapcert.SizeFunction
        for attr, field in (("gradient_at", "gradient"),
                            ("hessian_at", "hessian")):
            orig = size_fn.__dict__[attr]
            fd = self.span("lyapcert.fd_fallback", orig)

            def method(V, xi, _orig=orig, _fd=fd, _field=field):
                if getattr(V, _field) is not None:
                    return _orig(V, xi)
                log.count("lyapcert.fd_fallback.calls")
                return _fd(V, xi)

            self._set(size_fn, attr, method)

    # -- counters at the layer boundaries -------------------------------------

    def _hooks(self, mods) -> dict:
        log = self.log
        span = self.span
        simulate_path = mods["sde"].simulate_path
        check_dissipation = mods["lyapcert"].check_dissipation

        def ensemble(args, kwargs, ens):
            N, R, n = ens.states.shape
            log.count("sde.path_steps", N * int(round(ens.times[-1] / ens.dt)))
            log.count("sde.state_bytes", N * R * n * 8)
            log.count("sde.exits", int(np.sum(ens.exited)))
            log.count("sde.blowups", int(np.sum(ens.blowup)))

        def path(args, kwargs, p):
            b = inspect.signature(simulate_path).bind(*args, **kwargs)
            log.count("sde.path_steps", _nsteps(b.arguments["T"],
                                                b.arguments["dt"]))
            log.count("sde.exits", int(p.exited_domain))
            log.count("sde.blowups", int(p.blowup))

        def gain_stats(args, kwargs, result):
            ok = result[0]
            log.count("lqr.rows", ok.size)
            log.count("lqr.stable_rows", int(ok.sum()))

        def dissipation(args, kwargs, cert):
            b = inspect.signature(check_dissipation).bind(*args, **kwargs)
            states = np.atleast_2d(np.asarray(b.arguments["states"]))
            log.count("lyapcert.pairs",
                      states.shape[0] * len(b.arguments["thetas"]))
            log.count("lyapcert.violations", len(cert.violations))

        def objective(args, kwargs, obj):
            # the drift closures keep this object, so wrap its oracles here
            label, dim = obj.label, obj.dim
            name = f"objectives.oracle.{label}"

            def counted(kind, rows):
                def hook(a, kw, r):
                    log.count(f"objectives.{kind}.calls.{label}")
                    log.count(f"objectives.rows.{label}", rows(a[0]))
                return hook

            one = lambda z: 1
            return dataclasses.replace(
                obj,
                value=span(name, obj.value,
                           counted("value", lambda z: _rows(z, dim))),
                gradient=span(name, obj.gradient,
                              counted("gradient", lambda z: _rows(z, dim))),
                hessian=None if obj.hessian is None else
                span(name, obj.hessian, counted("hessian", one)))

        def model(args, kwargs, m):
            # frozen dataclass: swap the drift closure in place
            object.__setattr__(m, "drift", span("langevin.drift", m.drift))

        hooks = {"sde.simulate_ensemble": ensemble,
                 "sde.simulate_path": path,
                 "lqr.batched_gain_stats": gain_stats,
                 "lyapcert.check_dissipation": dissipation,
                 "langevin.build_overdamped": model,
                 "langevin.build_underdamped": model}
        hooks.update({f: objective for f in OBJECTIVE_FACTORIES})
        return hooks


LABELS = ("quadratic", "logistic", "lqr")

PER_LAYER = {
    "sde.simulate_ensemble.self_s": "s",
    "sde.path_steps": "count",
    "sde.ns_per_path_step": "ns",
    "sde.state_bytes": "bytes",  # computed as N*R*n*8 per ensemble
    "sde.exits": "count",
    "sde.blowups": "count",
    "sde.simulate_path.self_s": "s",
    "sde.us_per_step.b1": "us",
    "sde.us_per_step.b100": "us",
    "sde.us_per_step.b10000": "us",
    **{f"objectives.{m}.{label}": u for label in LABELS
       for m, u in (("value.calls", "count"), ("gradient.calls", "count"),
                    ("hessian_fd.calls", "count"), ("oracle.s", "s"),
                    ("rows", "count"))},
    "objectives.estimate_kpl_envelope.s": "s",
    "objectives.verify_pl.s": "s",
    "lqr.batched_gain_stats.calls": "count",
    "lqr.batched_gain_stats.rows": "count",
    "lqr.batched_gain_stats.s": "s",
    "lqr.us_per_row": "us",
    "lqr.stable_frac": "ratio",
    "lqr.lyapunov_solves": "count",  # computed as 2 x stabilizing rows
    "lqr.batched_gain_stats_mask.calls": "count",
    "lqr.solve_riccati.s": "s",
    "langevin.drift.calls": "count",
    "langevin.drift.self_s": "s",
    "langevin.scheduled_coefficients.calls": "count",
    "langevin.scheduled_coefficients.s": "s",
    "langevin.phi_functions.s": "s",
    "langevin.build_smoothness_ladder.s": "s",
    "lyapcert.generator_apply.calls": "count",
    "lyapcert.us_per_pair": "us",
    "lyapcert.check_dissipation.s": "s",
    "lyapcert.fd_fallback.calls": "count",
    "lyapcert.self_values.s": "s",
    "lyapcert.violations": "count",
    "nssmc.run_experiment.self_s": "s",
    "nssmc.tail_window_values.s": "s",
    "nssmc.exceedance_fraction.s": "s",
    "nssmc.fit_decay_envelope.s": "s",
    "nssmc.scnss_threshold_scan.self_s": "s",
    "compfun.class_fn.calls": "count",
    "compfun.class_fn.s": "s",
    "compfun.invert.calls": "count",
    "cli.load.s": "s",
    "cli.write.s": "s",
    "cli.artifact_bytes": "bytes",
    "cli.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(log: SpanLog, traced_wall: float, untraced_wall: float,
                  artifact_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, except the sde step probes.

    ``traced_wall`` is the time spent inside ``cli.main`` under the tracer
    and ``untraced_wall`` the same runs without it.
    """
    stats = span_stats(log)
    c = log.counters
    zero = SpanStat(0, 0.0, 0.0)
    st = lambda name: stats.get(name, zero)  # noqa: E731

    sim_s = st("sde.simulate_ensemble").total_s + st("sde.simulate_path").total_s
    gs = st("lqr.batched_gain_stats")
    out = {
        "sde.simulate_ensemble.self_s": st("sde.simulate_ensemble").self_s,
        "sde.path_steps": c["sde.path_steps"],
        "sde.ns_per_path_step": _ratio(sim_s, c["sde.path_steps"], 1e9),
        "sde.state_bytes": c["sde.state_bytes"],
        "sde.exits": c["sde.exits"],
        "sde.blowups": c["sde.blowups"],
        "sde.simulate_path.self_s": st("sde.simulate_path").self_s,
        "objectives.estimate_kpl_envelope.s":
            st("objectives.estimate_kpl_envelope").total_s,
        "objectives.verify_pl.s": st("objectives.verify_pl").total_s,
        "lqr.batched_gain_stats.calls": gs.calls,
        "lqr.batched_gain_stats.rows": c["lqr.rows"],
        "lqr.batched_gain_stats.s": gs.total_s,
        "lqr.us_per_row": _ratio(gs.total_s, c["lqr.rows"], 1e6),
        "lqr.stable_frac": _ratio(c["lqr.stable_rows"], c["lqr.rows"]),
        "lqr.lyapunov_solves": 2 * c["lqr.stable_rows"],
        "lqr.batched_gain_stats_mask.calls":
            st("lqr.batched_gain_stats_mask").calls,
        "lqr.solve_riccati.s": st("lqr.solve_riccati").total_s,
        "langevin.drift.calls": st("langevin.drift").calls,
        "langevin.drift.self_s": st("langevin.drift").self_s,
        "langevin.scheduled_coefficients.calls":
            st("langevin.scheduled_coefficients").calls,
        "langevin.scheduled_coefficients.s":
            st("langevin.scheduled_coefficients").total_s,
        "langevin.phi_functions.s": st("langevin.phi_functions").total_s,
        "langevin.build_smoothness_ladder.s":
            st("langevin.build_smoothness_ladder").total_s,
        "lyapcert.generator_apply.calls": st("lyapcert.generator_apply").calls,
        "lyapcert.us_per_pair": _ratio(st("lyapcert.check_dissipation").total_s,
                                       c["lyapcert.pairs"], 1e6),
        "lyapcert.check_dissipation.s":
            st("lyapcert.check_dissipation").total_s,
        "lyapcert.fd_fallback.calls": c["lyapcert.fd_fallback.calls"],
        "lyapcert.self_values.s": st("lyapcert.self_values").total_s,
        "lyapcert.violations": c["lyapcert.violations"],
        "nssmc.run_experiment.self_s": st("nssmc.run_experiment").self_s,
        "nssmc.tail_window_values.s": st("nssmc.tail_window_values").total_s,
        "nssmc.exceedance_fraction.s": st("nssmc.exceedance_fraction").total_s,
        "nssmc.fit_decay_envelope.s": st("nssmc.fit_decay_envelope").total_s,
        "nssmc.scnss_threshold_scan.self_s":
            st("nssmc.scnss_threshold_scan").self_s,
        "compfun.class_fn.calls": st("compfun.class_fn").calls,
        "compfun.class_fn.s": st("compfun.class_fn").total_s,
        "compfun.invert.calls": st("compfun.invert").calls,
        "cli.load.s": st("cli.load").total_s,
        "cli.write.s": st("cli.write").total_s,
        "cli.artifact_bytes": artifact_bytes,
        "cli.unattributed_s": traced_wall - root_covered_s(log),
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    for label in LABELS:
        out[f"objectives.value.calls.{label}"] = \
            c[f"objectives.value.calls.{label}"]
        out[f"objectives.gradient.calls.{label}"] = \
            c[f"objectives.gradient.calls.{label}"]
        out[f"objectives.hessian_fd.calls.{label}"] = \
            c[f"objectives.hessian_fd.calls.{label}"]
        out[f"objectives.oracle.s.{label}"] = \
            st(f"objectives.oracle.{label}").total_s
        out[f"objectives.rows.{label}"] = c[f"objectives.rows.{label}"]
    return out
