"""Configuration-driven experiment runner.

Subcommands: ``run <config>``, ``list``, ``validate <config>``.  Configs
are INI files read through one schema: KEYS gives each key's section,
cast and range, and each registered experiment the keys it reads, so
``validate`` rejects every config that ``run`` would.  Every run is a
pure function of (config, master seed) and re-running writes
byte-identical CSV artifacts.  ``--threads K`` caps the processes that a
sweep's Monte Carlo batches (``nssmc._batches``) run on; it never changes
a bit of the output.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import langevin, lqr, lyapcert, nssmc, objectives, sde
from .lyapcert import check_dissipation, default_state_samples, \
    default_theta_samples
from .nssmc import NssExperiment, run_experiment, scnss_threshold_scan


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> configparser.ConfigParser:
    if not Path(path).is_file():
        raise ConfigError(f"config file not found: {path}")
    cfg = configparser.ConfigParser()
    try:
        cfg.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return cfg


# ------------------------------------------------------------------- schema

def _number(raw: str) -> float:
    x = float(raw)
    if not math.isfinite(x):
        raise ValueError("must be finite")
    return x


def _numbers(raw: str) -> list[float]:
    out = [_number(s) for s in raw.replace(" ", "").split(",") if s]
    if not out:
        raise ValueError("empty list")
    return out


POSITIVE = ("must be positive", lambda x: min(np.atleast_1d(x)) > 0)
AT_LEAST_1 = ("must be >= 1", lambda x: x >= 1)
ASCENDING = ("must be non-negative and ascending",
             lambda s: s[0] >= 0 and all(np.diff(s) >= 0))

# key -> (section, cast, range): a range, checked when the library would
# reject the value later, is (text, test) or None
KEYS = {
    "name": ("experiment", str, None),
    "output": ("experiment", str, None),
    "diag": ("problem", _numbers, POSITIVE),
    "dataset": ("problem", str, None),
    "a": ("problem", _number, None),
    "f": ("problem", _number, None),
    "q": ("problem", _number, POSITIVE),
    "r": ("problem", _number, POSITIVE),
    "eta": ("dynamics", _number, POSITIVE),
    "c": ("dynamics", _number, POSITIVE),
    "h_max": ("dynamics", _number, POSITIVE),
    "tol": ("dynamics", _number, None),
    "n_dirs": ("dynamics", int, AT_LEAST_1),
    "sigma": ("noise", _number, None),
    "sigmas": ("noise", _numbers, ASCENDING),
    "N": ("mc", int, AT_LEAST_1),
    "dt": ("mc", _number, None),  # with T and store_every: see _parse
    "T": ("mc", _number, None),
    "store_every": ("mc", int, None),
    "epsilon": ("mc", _number, ("must lie in (0, 1)", lambda x: 0 < x < 1)),
    "master_seed": ("mc", int, ("must be >= 0", lambda x: x >= 0)),
}
COMMON = {"name": None, "output": "out", "master_seed": "0"}


def _parse(path: str):
    """The experiment function a config names and its typed values; an
    unread, missing or bad key is a ConfigError naming section and key."""
    cfg = _load_config(path)
    name = cfg.get("experiment", "name", raw=True, fallback=None)
    if name not in REGISTRY:
        raise ConfigError(f"{path}: [experiment] name = {name!r} is unknown")
    fn, _, keys, rules = REGISTRY[name]
    keys = {**COMMON, **keys}
    # configparser stores option names through optionxform (lower case)
    stored = {cfg.optionxform(k): KEYS[k][0] for k in keys}
    for section in cfg.sections():
        unread = [k for k in cfg[section] if stored.get(k) != section]
        if unread or section not in stored.values():
            raise ConfigError(" ".join([f"[{section}]", *unread])
                              + f": not read by {name}")
    v = SimpleNamespace()
    for key, default in keys.items():
        section, cast, rule = KEYS[key]
        raw = cfg.get(section, key, raw=True, fallback=default)
        if raw is None:
            raise ConfigError(f"[{section}] {key}: required by {name}")
        try:
            setattr(v, key, cast(raw))
            if rule is not None and not rule[1](getattr(v, key)):
                raise ValueError(rule[0])
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    if "dataset" in keys:
        dataset = Path(path).parent / v.dataset
        if not dataset.is_file():
            raise ConfigError(f"[problem] dataset: no such file {dataset}")
        try:
            v.dataset = objectives.load_logistic_csv(str(dataset))
            v.dataset_path = dataset
        except ValueError as exc:
            raise ConfigError(f"[problem] dataset {dataset}: {exc}") from exc
    try:
        if "dt" in keys:
            sde.check_time_grid(v.dt, v.T, v.store_every)
    except ValueError as exc:
        raise ConfigError(f"[mc] {exc}") from exc
    for section, key, text, test in rules:
        try:
            if test(v):
                continue
        except ValueError as exc:
            text = f"{text}: {exc}"
        raise ConfigError(f"[{section}] {key} = {getattr(v, key)}: {text}")
    if LQR.keys() <= keys.keys():
        _solve_lqr(v)
    return fn, v


def _solve_lqr(v) -> None:
    """The scalar regulator of an LQR config and its Riccati solution from
    LQR_K0, in ``v.problem`` and ``v.profile``: a ConfigError when the
    Kleinman-Newton iteration fails, as it does when q / r overflows.  The
    scalar problem loads no scipy, so ``validate`` makes this check too."""
    v.problem = lqr.LqrProblem(A=[[v.a]], F=[[v.f]], Q=[[v.q]], R=[[v.r]])
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            v.profile = lqr.solve_riccati(v.problem, K0=LQR_K0)
    except (lqr.StabilityError, lqr.ConditioningError,
            np.linalg.LinAlgError) as exc:
        raise ConfigError(f"[problem] a = {v.a:g}, f = {v.f:g}, q = "
                          f"{v.q:g}, r = {v.r:g}: the Riccati iteration "
                          f"from K0 = 2 fails: {exc}") from exc


def _check_nonseparable(v) -> None:
    """A ConfigError when some direction separates the labels of the
    config's dataset, which leaves the logistic loss without a minimizer.
    A scipy-free certificate settles most nonseparable datasets of full
    rank, the shipped one among them; any other falls back to linear
    programs that load ``scipy.optimize``, so ``run`` makes this check
    and ``validate`` does not.  The report stays in ``v.separability``
    for the experiment."""
    if hasattr(v, "dataset"):
        v.separability = sep = objectives.check_nonseparable(v.dataset)
        if sep.separable:
            raise ConfigError(f"[problem] dataset {v.dataset_path}: the "
                              f"labels are separable (margin "
                              f"{sep.margin:.3e}), so the logistic loss has "
                              "no minimizer")


def _write_summary(out: Path, lines: list[tuple[str, bool, str]]) -> bool:
    ok = all(p for _, p, _ in lines)
    with open(out / "summary.txt", "w") as fh:
        for name, passed, detail in lines:
            fh.write(f"{'PASS' if passed else 'FAIL'} {name}: {detail}\n")
        fh.write(f"{'PASS' if ok else 'FAIL'} overall\n")
    return ok


def _fmt(v):
    # 17 significant digits read back to the same double
    return format(v, ".17g") if isinstance(v, float) else v


def _csv_table(path: Path, header: list[str], rows, trailer: str = "") -> None:
    """The one artifact writer: a CSV table, then ``trailer`` verbatim."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        fh.write(trailer)


def _write_gain_curve(path: Path, curve) -> None:
    _csv_table(path, ["intensity", "tail_quantile", "blowup_fraction"],
               zip(curve.intensities, curve.tail_quantiles,
                   curve.blowup_fractions))


def _write_certificate(path: Path, cert) -> None:
    """Violation witnesses plus a trailing summary comment line."""
    _csv_table(path, ["state", "theta_intensity", "lhs", "rhs"],
               ([" ".join(_fmt(float(v)) for v in xi),
                 float(np.linalg.norm(Theta @ Theta.T, 2)), float(lhs),
                 float(rhs)] for xi, Theta, lhs, rhs in cert.violations),
               trailer=f"# kind={cert.kind} "
                       f"violations={len(cert.violations)}\n")


def _quadratic(v):
    A = np.diag(v.diag)
    return objectives.quadratic_objective(A, np.zeros(A.shape[0]))


def _damped_flow(a: float, eta: float, c: float, t: float) -> np.ndarray:
    """e^{M t} of M = [[0, 1], [-eta a, -c]]: e^{-c t / 2} (cos(wt) I +
    t sinc(wt) (M + c I / 2)), as (M + c I / 2)^2 = -w^2 I with w^2 = eta a
    - c^2 / 4 (w imaginary past critical damping, where sinc(0) = 1)."""
    wt = np.sqrt(complex(eta * a - 0.25 * c * c)) * t
    N = np.array([[0.5 * c, 1.0], [-eta * a, -0.5 * c]])
    return (math.exp(-0.5 * c * t) * (np.cos(wt) * np.eye(2)
                                      + t * np.sinc(wt / np.pi) * N)).real


def _noiseless_path(model, x0, v, seed, out):
    """Final state of the noiseless path from ``x0``, recorded to a CSV."""
    n = model.noise_dim
    schedule = sde.CovarianceSchedule.constant(np.zeros((n, n)), v.T)
    path = sde.simulate_path(model, schedule, x0, v.dt, v.T, seed,
                             store_every=v.store_every)
    _csv_table(out / "trajectory.csv",
               ["t"] + [f"state_{i}" for i in range(model.state_dim)],
               ([t] + s.tolist() for t, s in zip(path.times, path.states)))
    return path.states[-1]


# --------------------------------------------------------------- experiments
# fn(v, out, seed, workers) -> summary lines, with ``workers`` from
# --threads; @_experiment registers it with the keys it reads, their
# default text (None: required) and rules (section, key, text, test(v))
# that tie a value to the experiment or to other keys; a test fails by
# returning False or raising ValueError.

REGISTRY = {}  # name -> (fn, description, keys, rules)


def _experiment(name, description, keys, *rules):
    def register(fn):
        REGISTRY[name] = (fn, description, keys, rules)
        return fn
    return register


@_experiment("ou-sanity", "scalar linear diffusion against the "
             "stationary-variance closed form",
             {"sigma": "0.5", "N": "10000", "dt": "1e-3", "T": "50",
              "store_every": "25"},
             ("noise", "sigma", "the check divides by the stationary second "
              "moment sigma^2/2, so sigma must be non-zero",
              lambda v: v.sigma != 0))
def _exp_ou_sanity(v, out, seed, workers):
    obj = objectives.quadratic_objective(np.array([[1.0]]), np.zeros(1))
    model = langevin.build_overdamped(langevin.OverdampedConfig(objective=obj))
    schedule = sde.CovarianceSchedule.constant(np.array([[v.sigma]]), v.T)
    times = sde.record_times(v.dt, v.T, v.store_every)
    square = lambda z: z[:, 0] ** 2
    moments = nssmc.PathMeans(square, times.size)
    sde.simulate_ensemble(model, schedule, np.zeros(1), v.dt, v.T, v.N, seed,
                          store_every=v.store_every, reducers=[moments])
    tail = times >= max(0.0, v.T - 25.0)
    second_moment = float(np.mean(moments.means[tail]))
    target = v.sigma**2 / 2.0
    rel = abs(second_moment - target) / target
    _csv_table(out / "moments.csv", ["t", "mean_square"],
               zip(times.tolist(), moments.means.tolist()))
    return [("stationary-second-moment", rel <= 0.05,
             f"{second_moment:.6g} vs {target:.6g} (rel err {rel:.3f})")]


SWEEP_N = ("mc", "N", f"probabilistic claims need N >= {nssmc.MIN_PATHS}",
           lambda v: v.N >= nssmc.MIN_PATHS)
SWEEP = {"N": "2000", "dt": "1e-3", "T": "50", "store_every": "25",
         "epsilon": "0.05", "sigmas": "0.1,0.2,0.4"}
LQR = {"a": "1.0", "f": "1.0", "q": "1.0", "r": "1.0"}
LQR_K0 = np.array([[2.0]])  # Kleinman-Newton start of both LQR experiments
LQR_K0_RULE = ("problem", "a", "the Kleinman-Newton start K0 = 2 must make "
               "a - f K0 Hurwitz",
               lambda v: lqr.hurwitz_mask(v.a - v.f * LQR_K0[None])[0])
LQR_F_RULE = ("problem", "f", "the input gain must be non-zero: the K-PL "
              "modulus h/(b1 h + b2) divides by |F|", lambda v: v.f != 0)
# per-path supremum margin (in units of sigma^2) added to the decay
# envelope; calibrated on the scalar linear-diffusion oracle so that the
# worst-case violation fraction over the default sigma grid stays below
# one fifth of epsilon before freezing
EXCEEDANCE_MARGIN = 10.0


def _gain_sweep(v, out, seed, workers, exceedance=False):
    """(curve, summary lines) of the overdamped sweep; with ``exceedance``
    each ensemble also reduces its exceedance of the decay envelope +
    EXCEEDANCE_MARGIN sigma^2."""
    obj = _quadratic(v)
    model = langevin.build_overdamped(langevin.OverdampedConfig(objective=obj))
    V = langevin.objective_size_function(obj)
    schedules = [sde.CovarianceSchedule.constant(s * np.eye(obj.dim), v.T)
                 for s in v.sigmas]
    exp = NssExperiment(dynamics=model, V=V, schedule_family=schedules,
                        x0=np.asarray(obj.minimizer) + 1.0, N=v.N, dt=v.dt,
                        T=v.T, master_seed=seed, epsilon=v.epsilon,
                        store_every=v.store_every)
    bounds = None
    if exceedance:
        # the decay envelope 1.1 V0 exp(-rate t) of the noiseless chain:
        # with diag = 1, V = z^2/2 and z_k = (1 - dt)^k z0, so V_k =
        # V0 (1 - dt)^(2k) (Kloeden & Platen 1992)
        rate = -2.0 * math.log1p(-v.dt) / v.dt
        bounds = [lambda v0, t, g=EXCEEDANCE_MARGIN * s**2:
                  1.1 * v0 * np.exp(-rate * t) + g
                  for s in np.sqrt(exp.intensities())]
    curve = run_experiment(exp, bounds, workers=workers)
    _write_gain_curve(out / "gain_curve.csv", curve)
    mono = bool(np.all(np.diff(curve.tail_quantiles) >= -1e-12))
    return curve, [("gain-curve-monotone", mono, "tail quantiles "
                    f"{np.array2string(curve.tail_quantiles, precision=4)}")]


@_experiment("quadratic-overdamped", "gradient diffusion on a quadratic "
             "over a noise sweep; monotone gain curve",
             {"diag": "1,1", **SWEEP}, SWEEP_N)
def _exp_quadratic_overdamped(v, out, seed, workers):
    return _gain_sweep(v, out, seed, workers)[1]


@_experiment("gain-sweep", "quantile gain curve and exceedance fractions "
             "for the scalar quadratic",
             {"diag": None, **SWEEP}, SWEEP_N,
             ("problem", "diag", "gain-sweep expects the scalar unit "
              "quadratic, diag = 1", lambda v: v.diag == [1.0]),
             ("noise", "sigmas", "the chi-square oracle scales with "
              "sigma^2, so every sigma must be positive",
              lambda v: min(v.sigmas) > 0),
             ("mc", "dt", "the decay envelope V0 (1 - dt)^(2k) of the "
              "noiseless Euler chain needs dt < 1", lambda v: v.dt < 1))
def _exp_gain_sweep(v, out, seed, workers):
    curve, lines = _gain_sweep(v, out, seed, workers, exceedance=True)
    sigmas = np.sqrt(curve.intensities)
    # stationary law: V = z^2/2 with z ~ Normal(0, sigma^2/2)
    chi2_q = 3.841458820694124  # 0.95 quantile of chi-square(1)
    targets = (sigmas**2 / 4.0) * chi2_q
    rel = np.abs(curve.tail_quantiles - targets) / targets
    lines.append(("tail-quantile-chi-square", bool(np.all(rel <= 0.15)),
                  f"rel errs {np.array2string(rel, precision=3)}"))
    fracs = curve.exceedance_fractions.tolist()
    worst = max(fracs)
    lines.append(("exceedance-below-epsilon", worst <= v.epsilon,
                  f"worst path-sup violation fraction {worst:.4f} "
                  f"(epsilon {v.epsilon})"))
    _csv_table(out / "exceedance.csv", ["sigma", "violation_fraction"],
               zip(sigmas.tolist(), fracs))
    return lines


@_experiment("quadratic-underdamped", "noiseless momentum flow on a "
             "quadratic against the matrix-exponential oracle",
             {"diag": "1,1", "eta": "1.0", "c": "1.0", "dt": "1e-3",
              "T": "100", "store_every": "100"})
def _exp_quadratic_underdamped(v, out, seed, workers):
    obj = _quadratic(v)
    model = langevin.build_underdamped(langevin.UnderdampedConfig(
        objective=obj, eta=v.eta, c=v.c))
    n = obj.dim
    x0 = np.concatenate([np.asarray(obj.minimizer) + 1.0, np.zeros(n)])
    final = _noiseless_path(model, x0, v, seed, out)
    target = model.equilibrium
    dist = float(np.linalg.norm(final - target))
    # the linear flow: a 2x2 block on (z_i, v_i) per diagonal Hessian entry
    a, dx = np.diagonal(obj.hessian_at(obj.minimizer)), x0 - target
    flow = [_damped_flow(a[i], v.eta, v.c, v.T) @ dx[i::n] for i in range(n)]
    oracle = target + np.array(flow).T.reshape(-1)
    oracle_err = float(np.linalg.norm(final - oracle))
    return [("converges-to-rest", dist <= 1e-6, f"final distance {dist:.3e}"),
            ("matches-linear-oracle", oracle_err <= 1e-5,
             f"deviation {oracle_err:.3e}")]


@_experiment("logistic-overdamped", "gradient diffusion on nonseparable "
             "logistic regression; tail statistics",
             {"dataset": None, "sigma": "0.05", "N": "200", "dt": "1e-2",
              "T": "50", "store_every": "10"})
def _exp_logistic_overdamped(v, out, seed, workers):
    sep = v.separability
    lines = [("dataset-nonseparable", not sep.separable,
              f"margin {sep.margin:.3e}")]
    obj = objectives.logistic_objective(v.dataset)
    gstar = float(np.linalg.norm(obj.gradient_at(obj.minimizer)))
    lines.append(("optimizer-stationary", gstar <= 1e-8,
                  f"|grad| at theta* = {gstar:.3e}"))
    model = langevin.build_overdamped(langevin.OverdampedConfig(objective=obj))
    V = langevin.objective_size_function(obj)
    schedule = sde.CovarianceSchedule.constant(v.sigma * np.eye(obj.dim), v.T)
    times = sde.record_times(v.dt, v.T, v.store_every)
    tail = nssmc.WindowValues(lambda z: lyapcert.self_values(V, z), times,
                              v.N, v.T / 2.0, times[-1])
    sde.simulate_ensemble(model, schedule, obj.minimizer, v.dt, v.T, v.N,
                          seed, store_every=v.store_every, reducers=[tail])
    q = tail.quantile(0.95)
    _csv_table(out / "tail.csv", ["tail_quantile_95"], [[q]])
    lines.append(("noisy-tail-bounded", q < 10.0 * v.sigma**2 + 1e-3,
                  f"0.95 tail quantile of suboptimality {q:.3e}"))
    return lines


@_experiment("logistic-underdamped", "noiseless momentum flow to the "
             "logistic optimum",
             {"dataset": None, "tol": "1e-4", "dt": "1e-2", "T": "200",
              "store_every": "100"})
def _exp_logistic_underdamped(v, out, seed, workers):
    obj = objectives.logistic_objective(v.dataset)
    model = langevin.build_underdamped(langevin.UnderdampedConfig(
        objective=obj, eta=1.0, c=1.0))
    x0 = np.concatenate([obj.minimizer + 0.5, np.zeros(obj.dim)])
    final = _noiseless_path(model, x0, v, seed, out)
    dist = float(np.linalg.norm(final - model.equilibrium))
    return [("momentum-flow-converges", dist <= v.tol,
             f"final distance {dist:.3e} (tol {v.tol:g})")]


@_experiment("lqr-po-overdamped", "policy-gradient diffusion for the "
             "scalar regulator; blow-up onset bracket",
             {**LQR, "sigmas": "0.05,0.16,0.5,1.6,5.0", "N": "100",
              "dt": "1e-3", "T": "10", "store_every": "20"}, SWEEP_N,
             ("noise", "sigmas", "onset bracketing needs two or more",
              lambda v: len(v.sigmas) >= 2), LQR_F_RULE, LQR_K0_RULE)
def _exp_lqr_po_overdamped(v, out, seed, workers):
    problem, profile = v.problem, v.profile
    lines = []
    if np.allclose([v.a, v.f, v.q, v.r], 1.0):
        ref = 1.0 + np.sqrt(2.0)
        err = abs(profile.J2star - ref)
        lines.append(("scalar-optimal-cost", err <= 1e-8,
                      f"J2* = {profile.J2star:.12f} vs 1+sqrt(2) "
                      f"(err {err:.2e})"))
    obj = lqr.lqr_objective(problem, profile)
    model = langevin.build_overdamped(langevin.OverdampedConfig(
        objective=obj))
    V = langevin.objective_size_function(obj)
    schedules = [lqr.gain_noise_schedule(np.array([[s]]), problem.n, v.T)
                 for s in v.sigmas]
    exp = NssExperiment(dynamics=model, V=V, schedule_family=schedules,
                        x0=lqr.vec_gain(profile.Kstar), N=v.N, dt=v.dt,
                        T=v.T, master_seed=seed, store_every=v.store_every)
    bracket = scnss_threshold_scan(exp, workers=workers)
    _write_gain_curve(out / "gain_curve.csv", bracket.curve)
    lines.append(("blowup-onset", bracket.upper_onset_detected,
                  bracket.describe()))
    lines.append(("bottom-grid-stable",
                  bool(bracket.curve.blowup_fractions[0] <= 0.01),
                  f"blow-up fractions "
                  f"{np.array2string(bracket.curve.blowup_fractions, precision=3)}"))
    return lines


# dt, T and tol have no default: the code's (1e-4, 5, 1e-3) disagreed
# with the shipped config's (1e-3, 30, 1e-2)
@_experiment("lqr-po-underdamped", "scheduled-coefficient momentum flow on "
             "the regulator cost",
             {**LQR, "h_max": "20", "tol": None, "dt": None, "T": None,
              "store_every": "100"}, LQR_F_RULE, LQR_K0_RULE)
def _exp_lqr_po_underdamped(v, out, seed, workers):
    problem, profile = v.problem, v.profile
    obj = lqr.lqr_objective(problem, profile)
    ladder = langevin.ladder_from_profile(profile, problem, v.h_max)
    model = langevin.build_underdamped(langevin.UnderdampedConfig(
        objective=obj, phi=langevin.phi_functions(ladder)))
    x0 = np.append(lqr.vec_gain(profile.Kstar) + 0.3, 0.0)  # scalar gain
    final = _noiseless_path(model, x0, v, seed, out)
    dist = float(np.linalg.norm(final - model.equilibrium))
    return [("scheduled-momentum-converges", dist <= v.tol,
             f"final gain distance {dist:.3e} (tol {v.tol:g})")]


@_experiment("certify-dissipation", "dissipation-certificate falsification "
             "for the shipped Lyapunov triples", {"diag": "1,1"})
def _exp_certify_dissipation(v, out, seed, workers):
    obj = _quadratic(v)
    ocfg = langevin.OverdampedConfig(objective=obj)
    ucfg = langevin.UnderdampedConfig(objective=obj)
    umodel = langevin.build_underdamped(ucfg)
    ladder = langevin.build_smoothness_ladder(obj, h_max=1000.0, seed=seed)
    scfg = langevin.UnderdampedConfig(objective=obj,
                                      phi=langevin.phi_functions(ladder))
    states2 = default_state_samples(umodel.equilibrium, seed=seed + 1)
    lines = []
    for stem, check, V, model, triple, states in [
            ("overdamped_quadratic", "overdamped-quadratic",
             langevin.objective_size_function(obj),
             langevin.build_overdamped(ocfg),
             langevin.overdamped_certificate(ocfg),
             default_state_samples(obj.minimizer, seed=seed)),
            ("underdamped_v2", "underdamped-mixed",
             langevin.v2_size_function(ucfg), umodel,
             langevin.v2_certificate(ucfg), states2),
            ("underdamped_v3", "underdamped-scheduled",
             langevin.v3_size_function(scfg),
             langevin.build_underdamped(scfg),
             langevin.v3_certificate(scfg), states2)]:
        cert = check_dissipation(V, model, triple, states,
                                 default_theta_samples(obj.dim))
        _write_certificate(out / f"{stem}.csv", cert)
        lines.append((check, not cert.violations,
                      lyapcert.certificate_summary(cert)))
    return lines


@_experiment("pl-envelope", "empirical direction-uniform PL envelope with "
             "held-out verification", {"dataset": None, "n_dirs": "256"})
def _exp_pl_envelope(v, out, seed, workers):
    obj = objectives.logistic_objective(v.dataset)
    mu = objectives.estimate_kpl_envelope(obj, obj.minimizer, v.n_dirs,
                                          seed=seed)
    _csv_table(out / "envelope.csv", ["h", "mu"],
               ((h, float(mu(h))) for h in np.geomspace(1e-6, 10.0, 200)))
    rng = np.random.Generator(np.random.Philox(key=seed + 1))
    held_out = obj.minimizer + np.concatenate([
        scale * rng.standard_normal((334, obj.dim))
        for scale in (0.1, 1.0, 10.0)])
    report = objectives.verify_pl(obj, mu, held_out)
    return [("envelope-no-violations", report.clean,
             f"{len(report.violations)} violations over "
             f"{report.checked} held-out points")]


def list_experiments() -> str:
    width = max(len(k) for k in REGISTRY)
    return "\n".join(f"{name:<{width}}  {desc}"
                     for name, (_, desc, _, _) in sorted(REGISTRY.items()))


def run(config_path: str, out_dir: str | None = None,
        seed_override: int | None = None, threads: int = 1) -> int:
    try:
        if threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {threads}")
        if seed_override is not None and seed_override < 0:
            raise ConfigError(f"--seed-override must be >= 0, got "
                              f"{seed_override}")
        fn, v = _parse(config_path)
        _check_nonseparable(v)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(out_dir) if out_dir is not None else Path(v.output) / v.name
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        where = "--out" if out_dir is not None else "[experiment] output"
        print(f"error: {where} {out}: {exc.strerror}", file=sys.stderr)
        return 2
    lines = fn(v, out, v.master_seed if seed_override is None
               else seed_override, threads)
    ok = _write_summary(out, lines)
    for entry, passed, detail in lines:
        print(f"{'PASS' if passed else 'FAIL'} {entry}: {detail}")
    print(f"artifacts in {out}")
    return 0 if ok else 1


def validate(config_path: str) -> int:
    try:
        _, v = _parse(config_path)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"ok: {config_path} ({v.name})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nsslab",
        description="noise-to-state stability experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--threads", type=int, default=1,
                       help="processes a sweep's Monte Carlo batches run on "
                            "(default 1); output never depends on it")
    p_run.add_argument("--seed-override", type=int, default=None)
    sub.add_parser("list", help="list registered experiments")
    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("config")
    args = parser.parse_args(argv)
    if args.command == "list":
        print(list_experiments())
        return 0
    if args.command == "validate":
        return validate(args.config)
    return run(args.config, out_dir=args.out,
               seed_override=args.seed_override, threads=args.threads)


if __name__ == "__main__":
    sys.exit(main())
