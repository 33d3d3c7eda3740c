"""Configuration-driven experiment runner.

Subcommands: ``run <config>``, ``list``, ``validate <config>``.  Configs
are INI files with [experiment], [problem], [dynamics], [noise], and [mc]
sections; every run is a pure function of (config, master seed) and
re-running writes byte-identical CSV artifacts.  ``--threads K`` sets
the number of worker processes that large Monte Carlo ensembles run on;
the output never depends on it (see :mod:`nsslab.sde` for the shard
rule).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import sys
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from . import langevin, lqr, lyapcert, nssmc, objectives, sde
from .lyapcert import check_dissipation, default_state_samples, \
    default_theta_samples
from .nssmc import NssExperiment, fit_decay_envelope, run_experiment, \
    scnss_threshold_scan


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> configparser.ConfigParser:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    cfg = configparser.ConfigParser()
    try:
        cfg.read(p)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not cfg.has_section("experiment") or not cfg.get("experiment", "name",
                                                        fallback=None):
        raise ConfigError(f"{path}: missing [experiment] name")
    cfg._base_dir = str(p.parent)  # for dataset paths relative to the config
    return cfg


def _get(cfg, section: str, key: str, cast, default: str):
    """``cast`` of the raw config value; a value it rejects is a ConfigError
    naming the section, the key and the raw text."""
    raw = cfg.get(section, key, fallback=default)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _floats(raw: str) -> list[float]:
    out = [float(s) for s in raw.replace(" ", "").split(",") if s]
    if not out:
        raise ValueError("empty list")
    return out


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


def _write_trajectory(path: Path, traj) -> None:
    header = ["t"] + [f"state_{i}" for i in range(traj.states.shape[1])]
    _csv_table(path, header,
               ([t] + s.tolist() for t, s in zip(traj.times, traj.states)))


def _write_certificate(path: Path, cert) -> None:
    """Violation witnesses plus a trailing summary comment line."""
    _csv_table(path, ["state", "theta_intensity", "lhs", "rhs"],
               ([" ".join(_fmt(float(v)) for v in xi),
                 float(np.linalg.norm(Theta @ Theta.T, 2)), float(lhs),
                 float(rhs)] for xi, Theta, lhs, rhs in cert.violations),
               trailer=f"# kind={cert.kind} "
                       f"violations={len(cert.violations)}\n")


def _quadratic_from_config(cfg):
    A = np.diag(_get(cfg, "problem", "diag", _floats, "1,1"))
    return objectives.quadratic_objective(A, np.zeros(A.shape[0]))


def _logistic_from_config(cfg):
    rel = cfg.get("problem", "dataset", fallback=None)
    if rel is None:
        raise ConfigError("logistic experiments need problem.dataset")
    path = Path(getattr(cfg, "_base_dir", ".")) / rel
    if not path.is_file():
        raise ConfigError(f"dataset not found: {path}")
    return objectives.load_logistic_csv(str(path))


def _lqr_from_config(cfg):
    A, F, Q, R = ([[_get(cfg, "problem", k, float, "1.0")]] for k in "afqr")
    return lqr.LqrProblem(A=A, F=F, Q=Q, R=R)


# --------------------------------------------------------------- experiments
# Each experiment is fn(cfg, out, seed, workers) -> summary lines, with
# ``workers`` from --threads; only Monte Carlo ensembles read it.

def _exp_ou_sanity(cfg, out, seed, workers):
    obj = objectives.quadratic_objective(np.array([[1.0]]), np.zeros(1))
    model = langevin.build_overdamped(langevin.OverdampedConfig(objective=obj))
    sigma = _get(cfg, "noise", "sigma", float, "0.5")
    dt = _get(cfg, "mc", "dt", float, "1e-3")
    T = _get(cfg, "mc", "T", float, "50")
    N = _get(cfg, "mc", "N", int, "10000")
    store = _get(cfg, "mc", "store_every", int, "25")
    schedule = sde.CovarianceSchedule.constant(np.array([[sigma]]), T)
    times = sde.record_times(dt, T, store)
    square = lambda z: z[:, 0] ** 2
    moments = nssmc.PathMeans(square, times.size)
    tail = nssmc.WindowValues(square, times, N, max(0.0, T - 25.0), T)
    sde.simulate_ensemble(model, schedule, np.zeros(1), dt, T, N, seed,
                          store_every=store, reducers=[moments, tail],
                          workers=workers)
    second_moment = float(np.mean(tail.values))
    target = sigma**2 / 2.0
    rel = abs(second_moment - target) / target
    _csv_table(out / "moments.csv", ["t", "mean_square"],
               zip(times.tolist(), moments.means.tolist()))
    return [("stationary-second-moment", rel <= 0.05,
             f"{second_moment:.6g} vs {target:.6g} (rel err {rel:.3f})")]


def _gain_sweep_core(cfg, out, seed, workers, obj, exceedance=False):
    """Gain curve of the overdamped sweep on up to ``workers`` processes;
    with ``exceedance``, the quiet decay envelope is fitted first and each
    ensemble also reduces its exceedance of envelope + EXCEEDANCE_MARGIN
    sigma^2."""
    model = langevin.build_overdamped(langevin.OverdampedConfig(objective=obj))
    V = langevin.objective_size_function(obj)
    dt = _get(cfg, "mc", "dt", float, "1e-3")
    T = _get(cfg, "mc", "T", float, "50")
    N = _get(cfg, "mc", "N", int, "2000")
    store = _get(cfg, "mc", "store_every", int, "25")
    eps = _get(cfg, "mc", "epsilon", float, "0.05")
    sigmas = _get(cfg, "noise", "sigmas", _floats, "0.1,0.2,0.4")
    n = obj.dim
    schedules = [sde.CovarianceSchedule.constant(s * np.eye(n), T)
                 for s in sigmas]
    exp = NssExperiment(dynamics=model, V=V, schedule_family=schedules,
                        x0=np.asarray(obj.minimizer) + 1.0, N=N, dt=dt, T=T,
                        master_seed=seed, epsilon=eps, store_every=store)
    bounds = None
    if exceedance:
        # the quiet ensemble has its own seed, so fitting it first moves no
        # bits of the noisy ones
        quiet = sde.simulate_ensemble(
            model, sde.CovarianceSchedule.constant(np.zeros((1, 1)), T),
            exp.x0, dt, min(T, 20.0), min(N, 200), seed + 1000,
            store_every=store)
        beta = fit_decay_envelope(quiet, V)
        bounds = [lambda v0, t, g=EXCEEDANCE_MARGIN * s**2: beta(v0, t) + g
                  for s in np.sqrt(exp.intensities())]
    curve = run_experiment(exp, bounds, workers=workers)
    _write_gain_curve(out / "gain_curve.csv", curve)
    mono = bool(np.all(np.diff(curve.tail_quantiles) >= -1e-12))
    return curve, exp, [
        ("gain-curve-monotone", mono,
         f"tail quantiles {np.array2string(curve.tail_quantiles, precision=4)}")]


def _exp_quadratic_overdamped(cfg, out, seed, workers):
    obj = _quadratic_from_config(cfg)
    _, _, lines = _gain_sweep_core(cfg, out, seed, workers, obj)
    return lines


# per-path supremum margin (in units of sigma^2) added to the fitted decay
# envelope; calibrated on the scalar linear-diffusion oracle so that the
# worst-case violation fraction over the default sigma grid stays below
# one fifth of epsilon before freezing
EXCEEDANCE_MARGIN = 10.0


def _exp_gain_sweep(cfg, out, seed, workers):
    obj = _quadratic_from_config(cfg)
    if obj.dim != 1 or obj.hessian_at(obj.minimizer)[0, 0] != 1.0:
        raise ConfigError("gain-sweep expects the scalar unit quadratic")
    curve, exp, lines = _gain_sweep_core(cfg, out, seed, workers, obj,
                                         exceedance=True)
    sigmas = np.sqrt(curve.intensities)
    # stationary law: V = z^2/2 with z ~ Normal(0, sigma^2/2)
    chi2_q = 3.841458820694124  # 0.95 quantile of chi-square(1)
    targets = (sigmas**2 / 4.0) * chi2_q
    rel = np.abs(curve.tail_quantiles - targets) / targets
    lines.append(("tail-quantile-chi-square", bool(np.all(rel <= 0.15)),
                  f"rel errs {np.array2string(rel, precision=3)}"))
    fracs = curve.exceedance_fractions.tolist()
    worst = max(fracs)
    lines.append(("exceedance-below-epsilon", worst <= exp.epsilon,
                  f"worst path-sup violation fraction {worst:.4f} "
                  f"(epsilon {exp.epsilon})"))
    _csv_table(out / "exceedance.csv", ["sigma", "violation_fraction"],
               zip(sigmas.tolist(), fracs))
    return lines


def _exp_quadratic_underdamped(cfg, out, seed, workers):
    obj = _quadratic_from_config(cfg)
    ucfg = langevin.UnderdampedConfig(objective=obj, mode="constant_coeff",
                                      eta=_get(cfg, "dynamics", "eta", float,
                                               "1.0"),
                                      c=_get(cfg, "dynamics", "c", float,
                                             "1.0"))
    model = langevin.build_underdamped(ucfg)
    dt = _get(cfg, "mc", "dt", float, "1e-3")
    T = _get(cfg, "mc", "T", float, "100")
    n = obj.dim
    x0 = np.concatenate([np.asarray(obj.minimizer) + 1.0, np.zeros(n)])
    schedule = sde.CovarianceSchedule.constant(np.zeros((n, n)), T)
    path = sde.simulate_path(model, schedule, x0, dt, T, seed,
                             store_every=_get(cfg, "mc", "store_every", int,
                                              "100"))
    final = path.states[-1]
    target = np.concatenate([obj.minimizer, np.zeros(n)])
    dist = float(np.linalg.norm(final - target))
    # linear two-block flow oracle
    A = obj.hessian_at(obj.minimizer)
    M = np.block([[np.zeros((n, n)), np.eye(n)],
                  [-ucfg.eta * A, -ucfg.c * np.eye(n)]])
    oracle = target + expm(M * T) @ (x0 - target)
    oracle_err = float(np.linalg.norm(final - oracle))
    _write_trajectory(out / "trajectory.csv", path)
    return [("converges-to-rest", dist <= 1e-6, f"final distance {dist:.3e}"),
            ("matches-linear-oracle", oracle_err <= 1e-5,
             f"deviation {oracle_err:.3e}")]


def _exp_logistic_overdamped(cfg, out, seed, workers):
    data = _logistic_from_config(cfg)
    sep = objectives.check_nonseparable(data)
    lines = [("dataset-nonseparable", not sep.separable,
              f"margin {sep.margin:.3e}")]
    obj = objectives.logistic_objective(data)
    gstar = float(np.linalg.norm(obj.gradient_at(obj.minimizer)))
    lines.append(("optimizer-stationary", gstar <= 1e-8,
                  f"|grad| at theta* = {gstar:.3e}"))
    model = langevin.build_overdamped(langevin.OverdampedConfig(objective=obj))
    V = langevin.objective_size_function(obj)
    dt = _get(cfg, "mc", "dt", float, "1e-2")
    T = _get(cfg, "mc", "T", float, "50")
    N = _get(cfg, "mc", "N", int, "200")
    sigma = _get(cfg, "noise", "sigma", float, "0.05")
    schedule = sde.CovarianceSchedule.constant(sigma * np.eye(obj.dim), T)
    ens = sde.simulate_ensemble(model, schedule, obj.minimizer, dt, T, N,
                                seed, store_every=_get(cfg, "mc",
                                                       "store_every", int,
                                                       "10"))
    pooled = nssmc.tail_window_values(ens, V, T / 2.0, T)
    q = float(np.quantile(pooled, 0.95))
    _csv_table(out / "tail.csv", ["tail_quantile_95"], [[q]])
    lines.append(("noisy-tail-bounded", q < 10.0 * sigma**2 + 1e-3,
                  f"0.95 tail quantile of suboptimality {q:.3e}"))
    return lines


def _exp_logistic_underdamped(cfg, out, seed, workers):
    data = _logistic_from_config(cfg)
    obj = objectives.logistic_objective(data)
    ucfg = langevin.UnderdampedConfig(objective=obj, mode="constant_coeff",
                                      eta=1.0, c=1.0)
    model = langevin.build_underdamped(ucfg)
    n = obj.dim
    dt = _get(cfg, "mc", "dt", float, "1e-2")
    T = _get(cfg, "mc", "T", float, "200")
    x0 = np.concatenate([obj.minimizer + 0.5, np.zeros(n)])
    schedule = sde.CovarianceSchedule.constant(np.zeros((n, n)), T)
    path = sde.simulate_path(model, schedule, x0, dt, T, seed,
                             store_every=_get(cfg, "mc", "store_every", int,
                                              "100"))
    target = np.concatenate([obj.minimizer, np.zeros(n)])
    dist = float(np.linalg.norm(path.states[-1] - target))
    _write_trajectory(out / "trajectory.csv", path)
    tol = _get(cfg, "dynamics", "tol", float, "1e-4")
    return [("momentum-flow-converges", dist <= tol,
             f"final distance {dist:.3e} (tol {tol:g})")]


def _exp_lqr_po_overdamped(cfg, out, seed, workers):
    problem = _lqr_from_config(cfg)
    profile = lqr.solve_riccati(problem, K0=np.full((problem.m, problem.n),
                                                    2.0))
    lines = []
    if (problem.n, problem.m) == (1, 1) and np.allclose(
            [problem.A[0, 0], problem.F[0, 0], problem.Q[0, 0],
             problem.R[0, 0]], 1.0):
        ref = 1.0 + np.sqrt(2.0)
        err = abs(profile.J2star - ref)
        lines.append(("scalar-optimal-cost", err <= 1e-8,
                      f"J2* = {profile.J2star:.12f} vs 1+sqrt(2) "
                      f"(err {err:.2e})"))
    obj = lqr.lqr_objective(problem, profile)
    model = langevin.build_overdamped(langevin.OverdampedConfig(
        objective=obj, K_G=1.0))
    V = langevin.objective_size_function(obj)
    dt = _get(cfg, "mc", "dt", float, "1e-3")
    T = _get(cfg, "mc", "T", float, "10")
    N = _get(cfg, "mc", "N", int, "100")
    sigmas = _get(cfg, "noise", "sigmas", _floats, "0.05,0.16,0.5,1.6,5.0")
    schedules = [lqr.gain_noise_schedule(np.array([[s]]), problem.n, T)
                 for s in sigmas]
    exp = NssExperiment(dynamics=model, V=V, schedule_family=schedules,
                        x0=lqr.vec_gain(profile.Kstar), N=N, dt=dt, T=T,
                        master_seed=seed,
                        store_every=_get(cfg, "mc", "store_every", int, "20"))
    bracket = scnss_threshold_scan(exp, workers=workers)
    _write_gain_curve(out / "gain_curve.csv", bracket.curve)
    lines.append(("blowup-onset", bracket.upper_onset_detected,
                  bracket.describe()))
    lines.append(("bottom-grid-stable",
                  bool(bracket.curve.blowup_fractions[0] <= 0.01),
                  f"blow-up fractions "
                  f"{np.array2string(bracket.curve.blowup_fractions, precision=3)}"))
    return lines


def _exp_lqr_po_underdamped(cfg, out, seed, workers):
    problem = _lqr_from_config(cfg)
    profile = lqr.solve_riccati(problem, K0=np.full((problem.m, problem.n),
                                                    2.0))
    obj = lqr.lqr_objective(problem, profile)
    h_max = _get(cfg, "dynamics", "h_max", float, "20")
    ladder = langevin.ladder_from_profile(profile, problem, h_max)
    phi = langevin.phi_functions(ladder)
    ucfg = langevin.UnderdampedConfig(objective=obj, mode="scheduled",
                                      phi=phi, K_G=1.0)
    model = langevin.build_underdamped(ucfg)
    mn = problem.m * problem.n
    dt = _get(cfg, "mc", "dt", float, "1e-4")
    T = _get(cfg, "mc", "T", float, "5")
    x0 = np.concatenate([lqr.vec_gain(profile.Kstar) + 0.3, np.zeros(mn)])
    schedule = sde.CovarianceSchedule.constant(np.zeros((mn, mn)), T)
    path = sde.simulate_path(model, schedule, x0, dt, T, seed,
                             store_every=_get(cfg, "mc", "store_every", int,
                                              "100"))
    target = np.concatenate([lqr.vec_gain(profile.Kstar), np.zeros(mn)])
    dist = float(np.linalg.norm(path.states[-1] - target))
    _write_trajectory(out / "trajectory.csv", path)
    tol = _get(cfg, "dynamics", "tol", float, "1e-3")
    return [("scheduled-momentum-converges", dist <= tol,
             f"final gain distance {dist:.3e} (tol {tol:g})")]


def _exp_certify_dissipation(cfg, out, seed, workers):
    lines = []
    obj = _quadratic_from_config(cfg)
    ocfg = langevin.OverdampedConfig(objective=obj)
    model = langevin.build_overdamped(ocfg)
    V = langevin.objective_size_function(obj)
    states = default_state_samples(obj.minimizer, seed=seed)
    thetas = default_theta_samples(obj.dim)
    cert = check_dissipation(V, model, langevin.overdamped_certificate(ocfg),
                             states, thetas)
    _write_certificate(out / "overdamped_quadratic.csv", cert)
    lines.append(("overdamped-quadratic", not cert.violations,
                  lyapcert.certificate_summary(cert)))

    ucfg = langevin.UnderdampedConfig(objective=obj, mode="constant_coeff")
    umodel = langevin.build_underdamped(ucfg)
    v2 = langevin.v2_size_function(ucfg)
    states2 = default_state_samples(umodel.equilibrium, seed=seed + 1)
    thetas2 = default_theta_samples(obj.dim)
    cert2 = check_dissipation(v2, umodel, langevin.v2_certificate(ucfg),
                              states2, thetas2)
    _write_certificate(out / "underdamped_v2.csv", cert2)
    lines.append(("underdamped-mixed", not cert2.violations,
                  lyapcert.certificate_summary(cert2)))

    ladder = langevin.build_smoothness_ladder(obj, h_max=1000.0, seed=seed)
    phi = langevin.phi_functions(ladder)
    scfg = langevin.UnderdampedConfig(objective=obj, mode="scheduled", phi=phi)
    smodel = langevin.build_underdamped(scfg)
    v3 = langevin.v3_size_function(scfg)
    cert3 = check_dissipation(v3, smodel, langevin.v3_certificate(scfg),
                              states2, thetas2)
    _write_certificate(out / "underdamped_v3.csv", cert3)
    lines.append(("underdamped-scheduled", not cert3.violations,
                  lyapcert.certificate_summary(cert3)))
    return lines


def _exp_pl_envelope(cfg, out, seed, workers):
    data = _logistic_from_config(cfg)
    obj = objectives.logistic_objective(data)
    n_dirs = _get(cfg, "dynamics", "n_dirs", int, "256")
    env = objectives.estimate_kpl_envelope(obj, obj.minimizer, n_dirs,
                                           seed=seed)
    _csv_table(out / "envelope.csv", ["h", "mu"],
               ((h, float(env.mu(h))) for h in np.geomspace(1e-6, 10.0, 200)))
    rng = np.random.Generator(np.random.Philox(key=seed + 1))
    held_out = obj.minimizer + np.concatenate([
        scale * rng.standard_normal((334, obj.dim))
        for scale in (0.1, 1.0, 10.0)])
    report = objectives.verify_pl(obj, env, held_out)
    return [("envelope-no-violations", report.clean,
             f"{len(report.violations)} violations over "
             f"{report.checked} held-out points")]


REGISTRY = {
    "ou-sanity": (_exp_ou_sanity,
                  "scalar linear diffusion against the stationary-variance "
                  "closed form"),
    "quadratic-overdamped": (_exp_quadratic_overdamped,
                             "gradient diffusion on a quadratic over a noise "
                             "sweep; monotone gain curve"),
    "quadratic-underdamped": (_exp_quadratic_underdamped,
                              "noiseless momentum flow on a quadratic against "
                              "the matrix-exponential oracle"),
    "logistic-overdamped": (_exp_logistic_overdamped,
                            "gradient diffusion on nonseparable logistic "
                            "regression; tail statistics"),
    "logistic-underdamped": (_exp_logistic_underdamped,
                             "noiseless momentum flow to the logistic "
                             "optimum"),
    "lqr-po-overdamped": (_exp_lqr_po_overdamped,
                          "policy-gradient diffusion for the scalar "
                          "regulator; blow-up onset bracket"),
    "lqr-po-underdamped": (_exp_lqr_po_underdamped,
                           "scheduled-coefficient momentum flow on the "
                           "regulator cost"),
    "gain-sweep": (_exp_gain_sweep,
                   "quantile gain curve and exceedance fractions for the "
                   "scalar quadratic"),
    "certify-dissipation": (_exp_certify_dissipation,
                            "dissipation-certificate falsification for the "
                            "shipped Lyapunov triples"),
    "pl-envelope": (_exp_pl_envelope,
                    "empirical direction-uniform PL envelope with held-out "
                    "verification"),
}


def list_experiments() -> str:
    width = max(len(k) for k in REGISTRY)
    return "\n".join(f"{name:<{width}}  {desc}"
                     for name, (_, desc) in sorted(REGISTRY.items()))


def run(config_path: str, out_dir: str | None = None,
        seed_override: int | None = None, threads: int = 1) -> int:
    if threads < 1:
        print(f"error: --threads must be >= 1, got {threads}", file=sys.stderr)
        return 2
    try:
        cfg = _load_config(config_path)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    name = cfg.get("experiment", "name")
    if name not in REGISTRY:
        print(f"error: unknown experiment {name!r}; available:\n"
              f"{list_experiments()}", file=sys.stderr)
        return 2
    out = Path(out_dir) if out_dir is not None \
        else Path(cfg.get("experiment", "output", fallback="out")) / name
    fn, _ = REGISTRY[name]
    try:
        seed = seed_override if seed_override is not None \
            else _get(cfg, "mc", "master_seed", int, "0")
        out.mkdir(parents=True, exist_ok=True)
        lines = fn(cfg, out, seed, threads)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ok = _write_summary(out, lines)
    for entry, passed, detail in lines:
        print(f"{'PASS' if passed else 'FAIL'} {entry}: {detail}")
    print(f"artifacts in {out}")
    return 0 if ok else 1


def validate(config_path: str) -> int:
    try:
        cfg = _load_config(config_path)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    name = cfg.get("experiment", "name")
    if name not in REGISTRY:
        print(f"error: unknown experiment {name!r}", file=sys.stderr)
        return 2
    print(f"ok: {config_path} ({name})")
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
                       help="worker processes for large Monte Carlo "
                            "ensembles (default 1); output never depends "
                            "on it")
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
