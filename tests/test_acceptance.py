"""End-to-end acceptance suite.

One test per end-to-end property; each prints a single PASS line with the
measured quantity once its assertions hold.  All oracles are independent
closed forms (stationary laws, matrix exponentials, Riccati solutions,
chi-square quantiles) or finite differences.
"""

import time
from pathlib import Path

import numpy as np
from scipy.linalg import expm, solve_continuous_are

from nsslab import cli, lqr
from nsslab.langevin import (OverdampedConfig, UnderdampedConfig,
                             build_overdamped, build_smoothness_ladder,
                             build_underdamped, ladder_from_profile,
                             objective_size_function,
                             overdamped_certificate, phi_functions,
                             v2_certificate, v2_size_function, v3_certificate,
                             v3_size_function)
from nsslab.lyapcert import (check_dissipation, default_state_samples,
                             default_theta_samples, generator_apply)
from nsslab.nssmc import NssExperiment, run_experiment, scnss_threshold_scan
from nsslab.objectives import (check_nonseparable, estimate_kpl_envelope,
                               load_logistic_csv, logistic_hessian,
                               logistic_lipschitz_constant,
                               logistic_objective, quadratic_objective,
                               verify_pl, LogisticModel)
from nsslab.sde import CovarianceSchedule, simulate_ensemble, simulate_path

from helpers import (ReferenceSizeFunction, euler_decay,
                     gradient_bound_check, half_norm_squared,
                     random_stabilizing_gains)
from test_generator_reference import reference_generator_apply

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DEMO_CSV = CONFIG_DIR / "logistic_demo.csv"

CHI2_1_Q95 = 3.841458820694124  # 0.95 quantile of chi-square(1)


def _report(name, detail):
    print(f"PASS {name}: {detail}")


def _demo_objective():
    model = load_logistic_csv(str(DEMO_CSV))
    return model, logistic_objective(model)


def _scalar_lqr():
    one = np.array([[1.0]])
    problem = lqr.LqrProblem(A=one, F=one, Q=one, R=one)
    profile = lqr.solve_riccati(problem, K0=np.array([[2.0]]))
    return problem, profile


def _random_problem(n, m, seed):
    rng = np.random.default_rng(seed)
    return lqr.LqrProblem(A=rng.standard_normal((n, n)),
                          F=rng.standard_normal((n, m)),
                          Q=np.eye(n), R=np.eye(m))


def _spectral_abscissa(M):
    return float(np.max(np.real(np.linalg.eigvals(M))))


def _stabilizing_start(problem):
    P = solve_continuous_are(problem.A, problem.F, problem.Q, problem.R)
    return np.linalg.solve(problem.R, problem.F.T @ P)


def test_stationary_law_matches_lyapunov_oracle():
    # scalar linear diffusion: tail second moment sigma^2/2, under 60 s
    obj = quadratic_objective(np.array([[1.0]]), np.zeros(1))
    model = build_overdamped(OverdampedConfig(objective=obj))
    sigma, dt, T, N = 0.5, 1e-3, 50.0, 10_000
    schedule = CovarianceSchedule.constant(np.array([[sigma]]), T)
    t0 = time.perf_counter()
    ens = simulate_ensemble(model, schedule, np.zeros(1), dt, T, N, 2024,
                            store_every=25)
    elapsed = time.perf_counter() - t0
    idx = ens.times >= T / 2.0
    second_moment = float(np.mean(ens.states[:, idx, 0] ** 2))
    target = sigma**2 / 2.0
    rel = abs(second_moment - target) / target
    assert rel <= 0.05
    assert elapsed < 60.0
    _report("stationary-law",
            f"second moment {second_moment:.5f} vs {target} "
            f"(rel err {rel:.4f}, {elapsed:.1f} s)")


def test_generator_exact_on_quadratic_and_matches_finite_differences():
    # closed form for V = |z|^2/2 under drift -z with noise sigma I
    n = 3
    obj = quadratic_objective(np.eye(n), np.zeros(n))
    model = build_overdamped(OverdampedConfig(objective=obj))
    V = half_norm_squared()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        z = 3.0 * rng.standard_normal(n)
        s = rng.uniform(0.0, 2.0)
        got = generator_apply(V, model, z, s * np.eye(n))[0]
        want = -float(z @ z) + 0.5 * n * s**2
        worst = max(worst, abs(got - want) / (1.0 + abs(want)))
    assert worst <= 1e-10

    # analytic derivatives against central differences, every shipped V
    ucfg = UnderdampedConfig(objective=obj, eta=1.0, c=1.0)
    ladder = build_smoothness_ladder(obj, h_max=100.0)
    scfg = UnderdampedConfig(objective=obj, phi=phi_functions(ladder))
    cases = [
        (objective_size_function(obj), build_overdamped(
            OverdampedConfig(objective=obj)), n),
        (half_norm_squared(), build_overdamped(
            OverdampedConfig(objective=obj)), n),
        (v2_size_function(ucfg), build_underdamped(ucfg), 2 * n),
        (v3_size_function(scfg), build_underdamped(scfg), 2 * n),
    ]
    worst_fd = 0.0
    for V, model, dim in cases:
        fd = ReferenceSizeFunction(value=V.value)
        for k in range(20):
            x = rng.standard_normal(dim)
            s = rng.uniform(0.1, 1.0)
            Theta = s * np.eye(model.noise_dim)
            a = generator_apply(V, model, x, Theta)[0]
            b = reference_generator_apply(fd, model, x, Theta)
            worst_fd = max(worst_fd, abs(a - b) / (1.0 + abs(a)))
    assert worst_fd <= 1e-4
    _report("generator-exactness",
            f"closed-form rel err {worst:.2e} on 1000 probes, "
            f"worst analytic-vs-FD rel err {worst_fd:.2e}")


def test_dissipation_certificates_have_zero_violations():
    counts = {}

    # gradient-diffusion triple on the quadratic
    quad = quadratic_objective(np.diag([1.0, 2.0]), np.zeros(2))
    ocfg = OverdampedConfig(objective=quad)
    out = check_dissipation(objective_size_function(quad),
                            build_overdamped(ocfg),
                            overdamped_certificate(ocfg),
                            default_state_samples(quad.minimizer, seed=0),
                            default_theta_samples(2))
    counts["overdamped-quadratic"] = len(out.violations)

    # gradient-diffusion triple on nonseparable logistic regression
    _, lobj = _demo_objective()
    env = estimate_kpl_envelope(lobj, lobj.minimizer, n_dirs=256, seed=19)
    from dataclasses import replace
    lobj = replace(lobj, envelope=env)
    lcfg = OverdampedConfig(objective=lobj)
    cap = 12.0
    out = check_dissipation(objective_size_function(lobj),
                            build_overdamped(lcfg),
                            overdamped_certificate(lcfg, cap=cap),
                            default_state_samples(lobj.minimizer, seed=1),
                            default_theta_samples(lobj.dim, cap=cap))
    counts["overdamped-logistic"] = len(out.violations)

    # mixed momentum triple, constant coefficients
    ucfg = UnderdampedConfig(objective=quad, eta=1.0, c=1.0)
    umodel = build_underdamped(ucfg)
    out = check_dissipation(v2_size_function(ucfg), umodel,
                            v2_certificate(ucfg),
                            default_state_samples(umodel.equilibrium, seed=2),
                            default_theta_samples(2))
    counts["underdamped-mixed"] = len(out.violations)

    # scheduled-coefficient momentum triple
    ladder = build_smoothness_ladder(quad, h_max=1000.0)
    scfg = UnderdampedConfig(objective=quad, phi=phi_functions(ladder))
    smodel = build_underdamped(scfg)
    out = check_dissipation(v3_size_function(scfg), smodel,
                            v3_certificate(scfg),
                            default_state_samples(smodel.equilibrium, seed=3),
                            default_theta_samples(2))
    counts["underdamped-scheduled"] = len(out.violations)

    assert all(c == 0 for c in counts.values()), counts
    _report("dissipation-certificates",
            "zero violations over 1000 states x 10 intensities for "
            + ", ".join(counts))


def test_lqr_closed_forms_and_gradient():
    problem, profile = _scalar_lqr()
    ref = 1.0 + np.sqrt(2.0)
    cost_err = abs(profile.J2star - ref)
    gain_err = abs(profile.Kstar[0, 0] - ref)
    assert cost_err <= 1e-8 and gain_err <= 1e-8

    # 100 random instances, solved as one stack per dimension
    rng = np.random.default_rng(4)
    stacks = {}
    for _ in range(100):
        n = int(rng.integers(1, 11))
        A = rng.standard_normal((n, n))
        A_cl = A - (_spectral_abscissa(A) + 1.0) * np.eye(n)
        M = rng.standard_normal((n, n))
        M = M @ M.T + np.eye(n)
        stacks.setdefault(n, []).append((A_cl, M))
    worst_res = 0.0
    for pairs in stacks.values():
        As, Ms = (np.array(x) for x in zip(*pairs))
        for A_cl, M, P in zip(As, Ms, lqr.solve_lyapunov(As, Ms)):
            res = np.linalg.norm(A_cl.T @ P + P @ A_cl + M, "fro")
            scale = np.linalg.norm(M, "fro") + np.linalg.norm(P, "fro")
            worst_res = max(worst_res, res / scale)
    assert worst_res <= 1e-10

    # batched gradients against central differences of batched costs
    worst_fd = 0.0
    checked = 0
    for n, m, seed in [(2, 1, 30), (3, 2, 31)]:
        prob = _random_problem(n, m, seed)
        prof = lqr.solve_riccati(prob, K0=_stabilizing_start(prob))
        gains = random_stabilizing_gains(prob, prof, 10, seed, spread=0.3)
        ok, _, grads = lqr.batched_gain_stats(prob, gains.reshape(10, -1))
        assert ok.all()
        E = 1e-6 * np.eye(m * n)
        for K, G in zip(gains, grads):
            theta = lqr.vec_gain(K)
            ok, costs, _ = lqr.batched_gain_stats(
                prob, np.concatenate([theta + E, theta - E]))
            assert ok.all()
            fd = (costs[:m * n] - costs[m * n:]) / 2e-6
            denom = max(1.0, np.linalg.norm(G))
            worst_fd = max(worst_fd, np.linalg.norm(G - fd) / denom)
            checked += 1
    assert checked == 20 and worst_fd <= 1e-5
    _report("lqr-closed-forms",
            f"optimum err {cost_err:.1e}, worst Lyapunov residual "
            f"{worst_res:.1e}, worst gradient FD err {worst_fd:.1e}")


def test_lqr_gradient_dominance_modulus_never_violated():
    violations = 0
    checked = 0
    for n, m, seed in [(2, 1, 41), (3, 2, 42), (4, 2, 43)]:
        problem = _random_problem(n, m, seed)
        profile = lqr.solve_riccati(problem, K0=_stabilizing_start(problem))
        mu5 = lqr.mu5_class_function(profile)
        gains = random_stabilizing_gains(problem, profile, 100, seed,
                                             spread=0.5)
        ok, costs, grads = lqr.batched_gain_stats(problem,
                                                  gains.reshape(100, -1))
        assert ok.all()
        for c, g in zip(costs, grads):
            # the Frobenius norm of a gain is the norm of its vec
            if np.linalg.norm(g) < mu5(c - profile.J2star) - 1e-9:
                violations += 1
            checked += 1
    assert checked == 300 and violations == 0
    _report("lqr-gradient-dominance",
            f"0 violations over {checked} stabilizing gains on 3 instances")


def test_logistic_suite():
    model, obj = _demo_objective()
    L = logistic_lipschitz_constant(model)
    rng = np.random.default_rng(6)
    thetas = np.vstack([s * rng.standard_normal((250, 2))
                        for s in (0.1, 1.0, 10.0, 100.0)])
    worst_hess = max(float(np.linalg.norm(logistic_hessian(model, th), 2))
                     for th in thetas)
    assert worst_hess <= L + 1e-9

    rays = rng.standard_normal((100, 2))
    rays = 1e3 * rays / np.linalg.norm(rays, axis=1, keepdims=True)
    probes = np.vstack([rng.standard_normal((900, 2)) * 5.0, rays])
    grad_report = gradient_bound_check(model, probes)
    assert grad_report.max_ratio <= 1.0 + 1e-12

    # hand-verified separability instances
    sep_pair = LogisticModel(X=np.array([[-1.0, 1.0]]),
                             y=np.array([0.0, 1.0]))
    dup_x = LogisticModel(X=np.array([[1.0, 1.0]]), y=np.array([0.0, 1.0]))
    xor = LogisticModel(X=np.array([[1.0, -1.0, 1.0, -1.0],
                                    [1.0, -1.0, -1.0, 1.0]]),
                        y=np.array([1.0, 1.0, 0.0, 0.0]))
    assert check_nonseparable(sep_pair).separable
    assert not check_nonseparable(dup_x).separable
    assert not check_nonseparable(xor).separable
    assert not check_nonseparable(model).separable

    env = estimate_kpl_envelope(obj, obj.minimizer, n_dirs=256, seed=19)
    held = obj.minimizer + np.vstack(
        [s * rng.standard_normal((334, 2)) for s in (0.1, 1.0, 10.0)])
    report = verify_pl(obj, env, held)
    assert report.clean
    _report("logistic-suite",
            f"Hessian norm <= {L:.4f}, gradient ratio "
            f"{grad_report.max_ratio:.4f}, separability 4/4 correct, "
            f"envelope 0/{report.checked} violations")


def _phi_ladder_violations(phi, ladder, hs, gnorms):
    bad = int(np.sum(np.square(gnorms) > np.asarray(phi.phi1(hs)) + 1e-9))
    grid = np.linspace(0.0, ladder.h_max, 500)
    bad += int(np.sum(np.asarray(phi.phi2(grid))
                      < np.asarray(phi.phi1(grid)) - 1e-9))
    bad += int(np.sum(np.asarray(phi.phi2_prime(grid))
                      < 2.0 * np.asarray(ladder.Lbar2(grid)) + 2.5 - 1e-9))
    return bad


def test_gradient_growth_ladder_bounds_hold():
    counts = {}
    rng = np.random.default_rng(7)

    for label, obj in [
            ("quadratic", quadratic_objective(np.diag([1.0, 3.0]),
                                              np.zeros(2))),
            ("logistic", _demo_objective()[1])]:
        states = obj.minimizer + np.vstack(
            [s * rng.standard_normal((300, 2)) for s in (0.1, 1.0, 10.0)])
        hs = np.asarray(obj.value(states)) - obj.optimum_value
        gnorms = np.linalg.norm(np.asarray(obj.gradient(states)), axis=1)
        ladder = build_smoothness_ladder(obj, h_max=1.05 * float(hs.max()))
        phi = phi_functions(ladder)
        counts[label] = _phi_ladder_violations(phi, ladder, hs, gnorms)

    problem, profile = _scalar_lqr()
    gains = random_stabilizing_gains(problem, profile, 300, 8, spread=1.0)
    ok, costs, grads = lqr.batched_gain_stats(problem,
                                              gains.reshape(len(gains), -1))
    hs = costs[ok] - profile.J2star
    gnorms = np.linalg.norm(grads[ok], axis=1)
    ladder = ladder_from_profile(profile, problem, 1.05 * float(hs.max()))
    phi = phi_functions(ladder)
    counts["lqr"] = _phi_ladder_violations(phi, ladder, hs, gnorms)

    assert all(c == 0 for c in counts.values()), counts
    _report("gradient-growth-ladder",
            "zero violations of the growth/average/derivative bounds on "
            + ", ".join(counts))


def test_gain_curve_tail_quantiles_and_exceedance():
    obj = quadratic_objective(np.array([[1.0]]), np.zeros(1))
    model = build_overdamped(OverdampedConfig(objective=obj))
    V = objective_size_function(obj)
    sigmas = np.array([0.1, 0.2, 0.4])
    T, dt, N, seed = 50.0, 1e-3, 10_000, 17
    schedules = [CovarianceSchedule.constant(np.array([[s]]), T)
                 for s in sigmas]
    exp = NssExperiment(dynamics=model, V=V, schedule_family=schedules,
                        x0=np.ones(1), N=N, dt=dt, T=T, master_seed=seed,
                        store_every=25)
    beta = euler_decay(dt, 1.1)
    bounds = [lambda v0, t, g=cli.EXCEEDANCE_MARGIN * s**2: beta(v0, t) + g
              for s in sigmas]
    curve = run_experiment(exp, bounds, workers=2)
    # stationary law: V = z^2/2 with z ~ Normal(0, sigma^2/2)
    targets = (sigmas**2 / 4.0) * CHI2_1_Q95
    rel = np.abs(curve.tail_quantiles - targets) / targets
    assert np.all(rel <= 0.15)
    assert np.all(np.diff(curve.tail_quantiles) > 0)

    fracs = curve.exceedance_fractions.tolist()
    assert max(fracs) <= 0.05
    _report("gain-curve",
            f"tail quantile rel errs {np.array2string(rel, precision=3)}, "
            f"worst exceedance fraction {max(fracs):.4f}")


def test_blowup_onset_separates_bounded_and_unbounded_gain():
    problem, profile = _scalar_lqr()
    obj = lqr.lqr_objective(problem, profile)
    model = build_overdamped(OverdampedConfig(objective=obj))
    V = objective_size_function(obj)
    sigmas = [0.05, 0.16, 0.5, 1.6, 5.0]  # two decades
    T = 10.0
    schedules = [lqr.gain_noise_schedule(np.array([[s]]), 1, T)
                 for s in sigmas]
    exp = NssExperiment(dynamics=model, V=V, schedule_family=schedules,
                        x0=lqr.vec_gain(profile.Kstar), N=100, dt=1e-3, T=T,
                        master_seed=15, store_every=20)
    scan = scnss_threshold_scan(exp)
    fr = scan.curve.blowup_fractions
    assert fr[0] <= 0.01
    assert fr[-1] >= 0.50
    assert scan.upper_onset_detected

    quad = quadratic_objective(np.array([[1.0]]), np.zeros(1))
    qmodel = build_overdamped(OverdampedConfig(objective=quad))
    qexp = NssExperiment(
        dynamics=qmodel, V=objective_size_function(quad),
        schedule_family=[CovarianceSchedule.constant(np.array([[s]]), T)
                         for s in sigmas],
        x0=np.ones(1), N=100, dt=1e-3, T=T, master_seed=15, store_every=20)
    qscan = scnss_threshold_scan(qexp)
    assert not qscan.upper_onset_detected
    assert "no upper onset" in qscan.describe()
    _report("blowup-onset",
            f"regulator blow-up fractions {np.array2string(fr, precision=3)} "
            f"over two decades; quadratic reports no upper onset")


TINY_CONFIGS = {
    "ou-sanity": """
[noise]
sigma = 0.3
[mc]
N = 120
dt = 1e-2
T = 2
master_seed = 5
store_every = 10
""",
    "quadratic-overdamped": """
[problem]
diag = 1
[mc]
N = 100
dt = 1e-2
T = 2
master_seed = 5
store_every = 10
""",
    "quadratic-underdamped": """
[problem]
diag = 1
[dynamics]
eta = 1.0
c = 1.0
[mc]
dt = 1e-3
T = 100
master_seed = 5
store_every = 500
""",
    "logistic-overdamped": """
[problem]
dataset = {csv}
[noise]
sigma = 0.05
[mc]
N = 100
dt = 1e-2
T = 5
master_seed = 5
store_every = 10
""",
    "logistic-underdamped": """
[problem]
dataset = {csv}
[dynamics]
tol = 1.0
[mc]
dt = 1e-2
T = 5
master_seed = 5
store_every = 50
""",
    "lqr-po-overdamped": """
[noise]
sigmas = 0.05, 0.5
[mc]
N = 100
dt = 1e-3
T = 2
master_seed = 5
store_every = 20
""",
    "lqr-po-underdamped": """
[dynamics]
h_max = 20
tol = 1.0
[mc]
dt = 1e-3
T = 1
master_seed = 5
store_every = 100
""",
    "gain-sweep": """
[problem]
diag = 1
[noise]
sigmas = 0.1, 0.2
[mc]
N = 100
dt = 1e-2
T = 5
master_seed = 5
epsilon = 0.05
store_every = 10
""",
    "certify-dissipation": """
[problem]
diag = 1, 1
[mc]
master_seed = 5
""",
    "pl-envelope": """
[problem]
dataset = {csv}
[dynamics]
n_dirs = 16
[mc]
master_seed = 5
""",
}


# 8,192 paths: two batches of 4,096, run on up to --threads processes
SHARDED_GAIN_SWEEP = """
[problem]
diag = 1
[noise]
sigmas = 0.1, 0.2
[mc]
N = 8192
dt = 1e-2
T = 1
master_seed = 5
epsilon = 0.05
store_every = 10
"""


# 100 paths per ensemble: the three ensembles form one batch of 300
# rows, run in the parent at every thread count, and the top sigma makes
# paths exit
LQR_SWEEP_THREADS = """
[noise]
sigmas = 0.05, 0.5, 5.0
[mc]
N = 100
dt = 1e-3
T = 2
master_seed = 5
store_every = 20
"""


# two batches of 2,250 rows: ensemble 0 and paths [0, 750) of ensemble 1,
# then the rest of ensemble 1 and ensemble 2
QUADRATIC_SWEEP_BATCHES = """
[problem]
diag = 1
[noise]
sigmas = 0.1, 0.2, 0.4
[mc]
N = 1500
dt = 1e-2
T = 1
master_seed = 5
store_every = 10
"""


def test_thread_count_never_affects_artifacts(tmp_path):
    compared = 0
    cases = [(name, name, body, ("1", "8"))
             for name, body in TINY_CONFIGS.items()]
    cases.append(("gain-sweep-sharded", "gain-sweep", SHARDED_GAIN_SWEEP,
                  ("1", "2", "8")))
    cases.append(("lqr-po-overdamped-threads", "lqr-po-overdamped",
                  LQR_SWEEP_THREADS, ("1", "2", "8")))
    cases.append(("quadratic-overdamped-batches", "quadratic-overdamped",
                  QUADRATIC_SWEEP_BATCHES, ("1", "2", "8")))
    for case, name, body, threads in cases:
        cfg = tmp_path / f"{case}.ini"
        cfg.write_text(f"[experiment]\nname = {name}\noutput = out\n"
                       + body.format(csv=DEMO_CSV))
        outs = [tmp_path / case / f"t{k}" for k in threads]
        codes = [cli.main(["run", str(cfg), "--out", str(out),
                           "--threads", k])
                 for out, k in zip(outs, threads)]
        assert codes[0] in (0, 1) and len(set(codes)) == 1, case
        csvs = sorted(p.name for p in outs[0].glob("*.csv"))
        assert csvs, case
        for f in csvs:
            for out in outs[1:]:
                assert (outs[0] / f).read_bytes() == (out / f).read_bytes(), \
                    f"{case}/{f} differs between thread counts"
            compared += 1
    _report("determinism",
            f"{compared} CSV artifacts byte-identical at 1 and 8 threads "
            f"across all {len(TINY_CONFIGS)} experiments, and at 1, 2 and "
            f"8 threads for a gain sweep of two batches per ensemble, one "
            f"batch of three LQR ensembles and two batches that cut a "
            f"quadratic ensemble")


def test_underdamped_flow_matches_matrix_exponential():
    obj = quadratic_objective(np.diag([1.0, 2.0]), np.zeros(2))
    ucfg = UnderdampedConfig(objective=obj, eta=1.0, c=1.0)
    model = build_underdamped(ucfg)
    n, T, dt = 2, 100.0, 1e-3
    x0 = np.concatenate([obj.minimizer + 1.0, np.zeros(n)])
    schedule = CovarianceSchedule.constant(np.zeros((n, n)), T)
    path = simulate_path(model, schedule, x0, dt, T, 12, store_every=1000)
    final = path.states[-1]
    target = np.concatenate([obj.minimizer, np.zeros(n)])
    dist = float(np.linalg.norm(final - target))
    A = obj.hessian_at(obj.minimizer)
    M = np.block([[np.zeros((n, n)), np.eye(n)],
                  [-A, -np.eye(n)]])
    oracle = target + expm(M * T) @ (x0 - target)
    oracle_err = float(np.linalg.norm(final - oracle))
    assert dist <= 1e-6
    assert oracle_err <= 1e-5
    _report("underdamped-convergence",
            f"rest distance {dist:.2e}, matrix-exponential deviation "
            f"{oracle_err:.2e}")
