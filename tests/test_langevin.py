"""Unit tests for the Langevin dynamics builders, smoothness ladders, and
Lyapunov candidate triples."""

from dataclasses import replace

import numpy as np
import pytest

from nsslab import lqr
from nsslab.langevin import (OverdampedConfig, SmoothnessLadder,
                             UnderdampedConfig, _interp, _scheduled_terms,
                             build_overdamped, build_smoothness_ladder,
                             build_underdamped, ladder_from_profile,
                             objective_size_function,
                             overdamped_certificate, phi_functions,
                             v2_certificate, v2_size_function, v3_certificate,
                             v3_size_function)
from nsslab.lyapcert import (check_dissipation, default_state_samples,
                             default_theta_samples, generator_apply)
from nsslab.objectives import quadratic_objective
from nsslab.sde import BLOWUP_LIMIT, CovarianceSchedule, simulate_path

from helpers import ReferenceSizeFunction, half_norm_squared
from test_lqr_reference import assert_bitwise


def quad(n=2, lam=1.0):
    return quadratic_objective(lam * np.eye(n), np.zeros(n))


def lbar(ladder: SmoothnessLadder, h, k_g: float):
    """Lbar(h) = Lbar2(h) K_G^2 / 2: the ladder with the diffusion-field
    bound K_G folded in."""
    return 0.5 * ladder.Lbar2(h) * k_g**2


def ltilde(ladder: SmoothnessLadder, h, k_g: float):
    return lbar(ladder, h, k_g) - lbar(ladder, 0.0, k_g)


def generator_bound_overdamped(config: OverdampedConfig, z, sigma_mat,
                               ladder: SmoothnessLadder | None = None
                               ) -> tuple[float, float]:
    """Exact generator of J versus its dissipation bound at (z, Sigma).

    Constant learning rate: bound -mu(h)^2 + L K_G^2 |Sigma Sigma^T| / 2.
    Scheduled learning rate: bound -eta(h) mu(h)^2
    + (Lbar(0) + Ltilde(h)) |Sigma Sigma^T|, which needs a ladder.
    """
    obj = config.objective
    if obj.envelope is None:
        raise ValueError("objective has no PL envelope")
    z = np.asarray(z, dtype=float)
    sigma_mat = np.atleast_2d(np.asarray(sigma_mat, dtype=float))
    h = obj.value_at(z) - obj.optimum_value
    g = obj.gradient_at(z)
    H = obj.hessian_at(z)
    eta_h = 1.0 if config.eta is None else float(config.eta(np.asarray([h]))[0])
    lhs = (-eta_h * float(g @ g)
           + 0.5 * float(np.trace(sigma_mat.T @ H @ sigma_mat)))
    s = float(np.linalg.norm(sigma_mat @ sigma_mat.T, 2))
    mu_h = float(obj.envelope(h))
    if config.eta is None:
        if obj.global_lipschitz is None:
            raise ValueError("constant-rate bound needs the Lipschitz constant")
        rhs = -mu_h**2 + 0.5 * obj.global_lipschitz * config.k_g**2 * s
    else:
        if ladder is None:
            raise ValueError("scheduled-rate bound needs a smoothness ladder")
        rhs = -eta_h * mu_h**2 + float(lbar(ladder, 0.0, config.k_g)
                                       + ltilde(ladder, h, config.k_g)) * s
    return lhs, rhs


def v2_scalar(config, z, v):
    """Mixed candidate J - J* + lambda1 <v, grad J> + lambda2/2 <v, v>."""
    lam1, lam2, _ = config.lambdas
    obj = config.objective
    return float(obj.value_at(z) - obj.optimum_value
                 + lam1 * v @ obj.gradient_at(z) + 0.5 * lam2 * v @ v)


def v3_scalar(config, phi, z, v):
    """Smoothed-potential candidate phi2(J - J*) + <grad J, v> + <v, v>."""
    obj = config.objective
    h = obj.value_at(z) - obj.optimum_value
    return float(phi.phi2(h) + obj.gradient_at(z) @ v + v @ v)


class TestBuilders:
    def test_overdamped_drift_is_negative_gradient(self):
        model = build_overdamped(OverdampedConfig(objective=quad()))
        z = np.array([1.0, -2.0])
        assert np.allclose(model.drift(z[None])[0], -z)

    def test_overdamped_eta_schedule_applied(self):
        cfg = OverdampedConfig(objective=quad(),
                               eta=lambda h: 1.0 + np.asarray(h))
        model = build_overdamped(cfg)
        z = np.array([1.0, 0.0])  # h = 0.5, eta = 1.5
        assert np.allclose(model.drift(z[None])[0], -1.5 * z)

    def test_underdamped_block_structure(self):
        cfg = UnderdampedConfig(objective=quad(), eta=2.0, c=3.0)
        model = build_underdamped(cfg)
        x = np.array([1.0, 0.0, 0.5, -0.5])
        drift = model.drift(x[None])[0]
        assert np.allclose(drift[:2], x[2:])
        assert np.allclose(drift[2:], -2.0 * x[:2] - 3.0 * x[2:])
        assert np.array_equal(model.noise_map,
                              np.vstack([np.zeros((2, 2)), np.eye(2)]))

    def test_constant_mode_needs_lipschitz(self):
        obj = replace(quad(), global_lipschitz=None)
        with pytest.raises(ValueError):
            UnderdampedConfig(objective=obj)

    def test_lambda_weights_satisfy_constraints(self):
        cfg = UnderdampedConfig(objective=quad(), eta=1.0, c=1.0)
        lam1, lam2, lam3 = cfg.lambdas
        L = cfg.objective.global_lipschitz
        assert 0 < lam1 < min(1.0 / (2 + 1), 1.0 / (2 * L),
                              1.0 / (2 * (L + 1)))
        assert lam2 == (1.0 - lam1) / 1.0
        assert lam3 >= 1.0 + lam1 * L


class TestSmoothnessLadder:
    def test_quadratic_hessian_norm_recovered(self):
        ladder = build_smoothness_ladder(quad(lam=3.0), h_max=50.0)
        hs = np.linspace(0.0, 50.0, 20)
        assert np.allclose(ladder.Lbar2(hs), 3.0, atol=1e-8)

    def test_lbar_scaling(self):
        ladder = build_smoothness_ladder(quad(), h_max=10.0)
        assert abs(float(lbar(ladder, 1.0, 2.0)) - 0.5 * 1.0 * 4.0) <= 1e-8

    def test_analytic_lqr_ladder_matches_profile(self):
        problem = lqr.LqrProblem(A=np.eye(1), F=np.eye(1), Q=np.eye(1),
                                 R=np.eye(1))
        profile = lqr.solve_riccati(problem, K0=np.array([[2.0]]))
        ladder = ladder_from_profile(profile, problem, 10.0)
        hs = ladder.h_table
        assert np.allclose(ladder.Lbar2(hs),
                           lqr.smoothness_profile_L3(profile, problem, hs),
                           rtol=1e-12)


class TestPhiLadder:
    def test_quadratic_closed_form(self):
        # A = I: Lbar2 = 1, phi1(h) = 4.5 h
        ladder = build_smoothness_ladder(quad(), h_max=100.0)
        phi = phi_functions(ladder)
        assert abs(float(phi.phi1(1.0)) - 4.5) <= 1e-8
        assert abs(float(phi.phi2_prime(0.0)) - 4.5) <= 1e-6

    def test_small_delta_tracks_phi1(self):
        ladder = build_smoothness_ladder(quad(), h_max=10.0)
        phi = phi_functions(ladder, delta=1e-6)
        hs = np.linspace(0.1, 9.0, 30)
        rel = np.abs(phi.phi2(hs) - phi.phi1(hs)) / phi.phi1(hs)
        assert np.max(rel) <= 1e-5

    @pytest.mark.parametrize("h_max", [1000.0, 20.0, 3.7])
    @pytest.mark.parametrize("delta", [None, 1e-6])
    def test_phi2_prime_on_the_grid_is_the_difference_quotient(self, h_max,
                                                                delta):
        # the slope table V3 differentiates: phi2' on h_fine equals the
        # difference quotient of the phi1 table, clamped at h_max, bit for
        # bit and sign bits included
        phi = phi_functions(build_smoothness_ladder(quad(), h_max=h_max),
                            delta=delta)
        h = np.minimum(phi.h_fine, phi.h_max)
        want = (np.interp(h + phi.delta, phi.h_fine, phi.phi1_vals)
                - np.interp(h, phi.h_fine, phi.phi1_vals)) / phi.delta
        got = phi.phi2_prime(phi.h_fine)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("make", [
        lambda: phi_functions(build_smoothness_ladder(quad(), h_max=20.0)),
        lambda: scalar_lqr_scheduled()[0].phi], ids=["quadratic", "lqr"])
    def test_phi2_prime_of_a_float_is_the_array_path(self, make):
        # the float path repeats np.interp's arithmetic: at grid points and
        # one ulp either side, at both ends of the table, past h_max (where
        # h + delta runs off the table) and at NaN
        phi = make()
        grid = phi.h_fine[::37]
        hs = np.concatenate([
            grid, np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf),
            phi.h_fine[-3:] - phi.delta, [phi.h_max], phi.h_max + grid[1:4],
            [0.0, -0.0, -1.0, -np.inf, 1e300, np.inf, np.nan]])
        want = phi.phi2_prime(hs)
        got = [phi.phi2_prime(h) for h in hs.tolist()]
        assert {type(g) for g in got} == {float}
        assert_bitwise(np.array(got), want)
        assert np.isnan(got[-1])

    def test_float_interp_is_numpys(self):
        # finite tables with signed zeros, flat pieces and slopes that
        # overflow, at both ends, grid points, one ulp off them and NaN
        xp = [0.0, 1.0, 2.0, 3.0, 4.0]
        for fp in ([1.0, 1.0, -2.0, 1e308, -1e308], [0.0, -0.0, 0.0, 3.0, 3.0],
                   [-0.0, 5e-324, -1e-300, 7.5, 7.5]):
            xs = np.array([-1.0, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.5,
                           4.0, 9.0, np.nextafter(1.0, 0.0),
                           np.nextafter(2.0, 3.0), np.nan]).tolist()
            with np.errstate(over="ignore"):
                want = np.interp(xs, xp, fp)
            assert_bitwise(np.array([_interp(x, xp, fp) for x in xs]), want)

    def test_phi2_prime_dominates_hessian_bound(self):
        ladder = build_smoothness_ladder(quad(), h_max=10.0)
        phi = phi_functions(ladder)
        hs = np.linspace(0.0, 10.0, 50)
        assert np.all(phi.phi2_prime(hs)
                      >= 2.0 * ladder.Lbar2(hs) + 2.5 - 1e-9)

    def test_inverse_roundtrip(self):
        ladder = build_smoothness_ladder(quad(), h_max=10.0)
        phi = phi_functions(ladder)
        hs = np.linspace(0.5, 9.5, 20)
        back = phi.phi2_inverse(phi.phi2(hs))
        assert np.max(np.abs(back - hs)) <= 1e-6

    def test_inverse_clamps_below_phi2_zero(self):
        ladder = build_smoothness_ladder(quad(), h_max=10.0)
        phi = phi_functions(ladder)
        assert float(phi.phi2_inverse(0.5 * float(phi.phi2(0.0)))) == 0.0


class TestScheduledMode:
    def make_config(self):
        obj = quad()
        ladder = build_smoothness_ladder(obj, h_max=100.0)
        phi = phi_functions(ladder)
        return UnderdampedConfig(objective=obj, phi=phi)

    def test_coefficients(self):
        cfg = self.make_config()
        z = np.array([[1.0, 0.0]])
        c, eta = _scheduled_terms(cfg, z)[:2]
        assert np.allclose(c, 1.0)  # |hess|/2 + 1/2 = 1 for A = I
        assert np.all(eta >= 1.0 - 1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_damping_is_the_spectral_norm_form(self, n):
        # c(z) = |H(z)|_2 / 2 + 1/2 bit for bit as norm(H, 2, axis=(1, 2))
        # gives it, on symmetric Hessian stacks that vary row to row
        rng = np.random.default_rng(n)
        S = rng.standard_normal((50, n, n)) \
            * 10.0 ** rng.integers(-3, 4, size=(50, 1, 1))
        H = S + np.swapaxes(S, 1, 2)
        phi = phi_functions(build_smoothness_ladder(quad(n), h_max=100.0))
        obj = replace(quad(n), hessian=lambda z: H)
        cfg = UnderdampedConfig(objective=obj, phi=phi)
        c, _ = _scheduled_terms(cfg, rng.standard_normal((50, n)))[:2]
        want = 0.5 * np.linalg.norm(H, 2, axis=(1, 2)) + 0.5
        assert np.array_equal(c, want)

    def test_scalar_damping_is_the_svd_form(self):
        # A 1x1 Hessian's spectral norm is |h|, which LAPACK's svd returns
        # bit for bit for |h| in [1e-100, 1e100].  Beyond about 1e+-150 the
        # svd is one ulp off and |h| is the exact value.
        rng = np.random.default_rng(7)
        h = rng.choice([-1.0, 1.0], 5000) * 10.0 ** rng.uniform(-100, 100,
                                                                5000)
        H = h[:, None, None]
        svd = np.linalg.svd(H, compute_uv=False).max(axis=1)
        assert np.array_equal(np.abs(h), svd)
        phi = phi_functions(build_smoothness_ladder(quad(1), h_max=100.0))
        obj = replace(quad(1), hessian=lambda z: H)
        cfg = UnderdampedConfig(objective=obj, phi=phi)
        c, _ = _scheduled_terms(cfg, rng.standard_normal((5000, 1)))[:2]
        assert np.array_equal(c, 0.5 * svd + 0.5)

    def test_noiseless_flow_converges(self):
        cfg = self.make_config()
        model = build_underdamped(cfg)
        x0 = np.array([1.0, -1.0, 0.0, 0.0])
        sched = CovarianceSchedule.constant(np.zeros((2, 2)), 30.0)
        path = simulate_path(model, sched, x0, 1e-3, 30.0, 0, store_every=100)
        assert np.linalg.norm(path.states[-1]) <= 1e-6


def scalar_lqr_scheduled():
    one = np.array([[1.0]])
    problem = lqr.LqrProblem(A=one, F=one, Q=one, R=one)
    profile = lqr.solve_riccati(problem, K0=2.0 * one)
    obj = lqr.lqr_objective(problem, profile)
    ladder = ladder_from_profile(profile, problem, 20.0)
    cfg = UnderdampedConfig(objective=obj, phi=phi_functions(ladder))
    return cfg, build_underdamped(cfg)


class TestScheduledLqr:
    def test_drift_makes_one_oracle_call_and_domain_test_none(
            self, monkeypatch):
        # the point drift runs on Python floats and makes no batched call;
        # a batch drift, of one row or more, makes one value-and-gradient
        # call on its rows, its Hessian oracle none (each row's stencil is
        # taken on floats), and the domain test none
        cfg, model = scalar_lqr_scheduled()
        calls = []
        orig = lqr.batched_gain_stats

        def counted(*args, **kwargs):
            calls.append(np.shape(args[1]))
            return orig(*args, **kwargs)

        monkeypatch.setattr(lqr, "batched_gain_stats", counted)
        k = cfg.objective.minimizer[0]
        x = np.array([[k + 0.3, 0.1], [k - 0.2, -0.4]])
        point = model.point_drift(tuple(x[0].tolist()))
        assert calls == []
        assert model.domain_test(x[:1]).tolist() == [True]
        assert calls == []
        one = model.drift(x[:1])
        assert calls == [(1, 1)]
        assert np.array_equal(np.array([point]), one)
        both = model.drift(x)
        assert calls[1:] == [(2, 1)]
        assert np.array_equal(both[:1], one)

    def test_drift_is_finite_next_to_the_stability_boundary(self):
        # k = 1 + 5e-6 stabilizes (a - f k = -5e-6), but the Hessian probe
        # k - h, h = 2e-5, does not; the one-sided quotient on the inside
        # keeps c(z), eta(z) and the drift finite on both routes
        cfg, model = scalar_lqr_scheduled()
        x = np.array([[1.0 + 5e-6, 0.0]])
        assert model.domain_test(x).all()
        H = cfg.objective.evaluate(x[:, :1], hessian=True)[2]
        c, eta, _ = _scheduled_terms(cfg, x[:, :1])
        drift = model.drift(x)
        assert H[0, 0, 0] > 0
        assert np.isfinite(np.concatenate([c, eta, drift[0]])).all()
        assert np.array_equal(model.drift(np.vstack([x, [[2.0, 0.1]]]))[:1],
                              drift)
        # J'' = 2 / (k - 1)^3 makes the drift of order 1e25 here, so the
        # explicit step stays under BLOWUP_LIMIT only for dt below about
        # 5e-14
        dt = 1e-14
        assert (np.abs(drift) * dt < BLOWUP_LIMIT).all()
        sched = CovarianceSchedule.constant(np.zeros((1, 1)), dt)
        path = simulate_path(model, sched, x[0], dt, dt, 0)
        assert not path.exited_domain and len(path.times) == 2

    def test_drift_equals_per_point_formula(self):
        # the formula the fused drift replaced: c from the per-point FD
        # Hessian, eta from value(z), the gradient from gradient(z)
        cfg, model = scalar_lqr_scheduled()
        obj = cfg.objective
        k = obj.minimizer[0]
        x = np.array([[k + 0.3, 0.0], [k + 2.0, -0.7], [k - 0.5, 1.5]])
        z, v = x[:, :1], x[:, 1:]
        hnorm = []
        for zi in z:
            h = 1e-5 * (1.0 + float(np.linalg.norm(zi)))
            H = ((obj.gradient_at(zi + h) - obj.gradient_at(zi - h))
                 / (2.0 * h))[:, None]
            hnorm.append(np.linalg.norm(0.5 * (H + H.T), 2))
        c = 0.5 * np.array(hnorm) + 0.5
        eta = 0.5 * (cfg.phi.phi2_prime(obj.value(z) - obj.optimum_value) - c)
        want = np.concatenate(
            [v, -eta[:, None] * obj.gradient(z) - c[:, None] * v], axis=1)
        assert np.array_equal(model.drift(x), want)
        got_c, got_eta = _scheduled_terms(cfg, z)[:2]
        assert np.array_equal(got_c, c) and np.array_equal(got_eta, eta)

    def test_eta_is_negative_only_past_the_ladder(self):
        # eta >= 1 at every state of the shipped lqr_po_underdamped path,
        # where J - J* stays below h_max = 20; at k = 1 + 5e-6, J - J* is
        # 2.0e5 and eta = -4.8e14.  The float route (the point oracle and
        # phi2_prime of a float, as the point drift uses them) gives the
        # array route's eta bit for bit.
        cfg, model = scalar_lqr_scheduled()
        obj, phi = cfg.objective, cfg.phi

        def point_eta(k):
            _, value, _, H = obj.point((k,))
            c = 0.5 * abs(H[0][0]) + 0.5
            return 0.5 * (phi.phi2_prime(value - obj.optimum_value) - c)

        x0 = [obj.minimizer[0] + 0.3, 0.0]
        path = simulate_path(model, CovarianceSchedule.constant(
            np.zeros((1, 1)), 30.0), x0, 1e-3, 30.0, 16)
        z = path.states[:, :1]
        eta = _scheduled_terms(cfg, z)[1]
        assert len(z) == 30_001 and eta.min() >= 1.0
        assert_bitwise(np.array([point_eta(k) for k in z[:, 0].tolist()]),
                       eta)
        edge = 1.0 + 5e-6
        eta = _scheduled_terms(cfg, np.array([[edge]]))[1]
        assert_bitwise(np.array([point_eta(edge)]), eta)
        assert -4.9e14 < eta[0] < -4.7e14


class TestSizeFunctions:
    def test_objective_size_function_values(self):
        V = objective_size_function(quad())
        assert abs(V.value(np.array([1.0, 1.0])) - 1.0) <= 1e-12

    def test_objective_size_function_calls_each_oracle_once(self):
        # the gradient and Hessian go straight to the objective's oracles
        obj = quadratic_objective(np.diag([1.0, 3.0]), np.array([0.5, -1.0]))
        calls = dict.fromkeys(("value", "gradient", "hessian"), 0)

        def counted(kind, fn):
            def oracle(z):
                calls[kind] += 1
                return fn(z)
            return oracle

        V = objective_size_function(replace(
            obj, **{k: counted(k, getattr(obj, k)) for k in calls}))
        z = np.array([[0.3, -1.2], [2.0, 0.5], [-0.7, 0.0]])
        values, grads, H = V.evaluate(z, hessian=True)
        assert calls == {"value": 1, "gradient": 1, "hessian": 1}
        want = obj.evaluate(z, hessian=True)
        assert np.array_equal(values, want[0] - obj.optimum_value)
        assert np.array_equal(grads, want[1]) and np.array_equal(H, want[2])

    def test_half_norm_squared_center(self):
        V = half_norm_squared(center=np.array([1.0, 0.0]))
        assert abs(V.value(np.array([2.0, 0.0])) - 0.5) <= 1e-12
        assert np.allclose(V.gradient_at(np.array([2.0, 0.0])), [1.0, 0.0])

    def test_v2_matches_scalar_form(self):
        cfg = UnderdampedConfig(objective=quad(), eta=1.0, c=1.0)
        V = v2_size_function(cfg)
        z = np.array([0.7, -0.4])
        v = np.array([0.2, 0.1])
        assert abs(V.value(np.concatenate([z, v]))
                   - v2_scalar(cfg, z, v)) <= 1e-12

    def test_v3_matches_scalar_form(self):
        obj = quad()
        ladder = build_smoothness_ladder(obj, h_max=100.0)
        phi = phi_functions(ladder)
        cfg = UnderdampedConfig(objective=obj, phi=phi)
        V = v3_size_function(cfg)
        z = np.array([0.7, -0.4])
        v = np.array([0.2, 0.1])
        assert abs(V.value(np.concatenate([z, v]))
                   - v3_scalar(cfg, phi, z, v)) <= 1e-12

    def test_v2_derivatives_match_fd(self):
        cfg = UnderdampedConfig(objective=quad(), eta=1.0, c=1.0)
        V = v2_size_function(cfg)
        fd = ReferenceSizeFunction(value=V.value)
        x = np.array([0.7, -0.4, 0.2, 0.1])
        assert np.max(np.abs(V.gradient_at(x) - fd.gradient_at(x))) <= 1e-4
        assert np.max(np.abs(V.hessian_at(x) - fd.hessian_at(x))) <= 1e-3

    def test_v3_derivatives_match_fd_past_h_max(self):
        # phi2 is flat past h_max (h = 1250 and 1334.5 here), so the
        # derivatives must drop its slope and curvature there too
        obj = quad()
        phi = phi_functions(build_smoothness_ladder(obj, h_max=1000.0))
        V = v3_size_function(UnderdampedConfig(objective=obj, phi=phi))
        fd = ReferenceSizeFunction(value=V.value)
        for x in ([0.7, -0.4, 0.2, 0.1], [20.0, 30.0, 0.5, -0.5],
                  [40.0, 30.0, 0.5, -0.5], [-35.0, 38.0, -1.0, 2.0]):
            x = np.array(x)
            assert np.max(np.abs(V.gradient_at(x) - fd.gradient_at(x))) <= 1e-4
            assert np.max(np.abs(V.hessian_at(x) - fd.hessian_at(x))) <= 1e-3


class TestCertificates:
    def test_overdamped_quadratic_nss_clean(self):
        cfg = OverdampedConfig(objective=quad())
        cert = overdamped_certificate(cfg)
        assert cert.kind == "NSS"
        out = check_dissipation(objective_size_function(cfg.objective),
                                build_overdamped(cfg), cert,
                                default_state_samples(np.zeros(2), count=300),
                                default_theta_samples(2))
        assert out.violations == []

    def test_bounded_modulus_needs_cap(self):
        problem = lqr.LqrProblem(A=np.eye(1), F=np.eye(1), Q=np.eye(1),
                                 R=np.eye(1))
        profile = lqr.solve_riccati(problem, K0=np.array([[2.0]]))
        obj = lqr.lqr_objective(problem, profile)
        obj = replace(obj, global_lipschitz=float(
            lqr.smoothness_profile_L3(profile, problem, 10.0)))
        cfg = OverdampedConfig(objective=obj)
        with pytest.raises(ValueError):
            overdamped_certificate(cfg)
        cert = overdamped_certificate(cfg, cap=2.0)
        assert cert.kind == "scNSS" and cert.d == 2.0

    # gamma(1.0) of the overdamped, V2 and V3 certificates on diag(A), as
    # K_G = sqrt(n) gave them when K_G was a config field
    GAMMA_AT_1 = {(2.0,): ("0x1.0000000000000p+0", "0x1.b333333333333p-2",
                           "0x1.0000000000000p+0"),
                  (1.0, 3.0): ("0x1.8000000000002p+1", "0x1.c666666666668p-1",
                               "0x1.0000000000001p+1")}

    @pytest.mark.parametrize("diag", list(GAMMA_AT_1), ids=len)
    def test_gamma_pinned(self, diag):
        obj = quadratic_objective(np.diag(diag), np.zeros(len(diag)))
        ucfg = UnderdampedConfig(objective=obj, eta=1.0, c=1.0)
        phi = phi_functions(build_smoothness_ladder(obj, h_max=10.0))
        certs = (overdamped_certificate(OverdampedConfig(objective=obj)),
                 v2_certificate(ucfg), v3_certificate(replace(ucfg, phi=phi)))
        got = tuple(float(c.gamma(1.0)).hex() for c in certs)
        assert got == self.GAMMA_AT_1[diag]

    def test_v2_quadratic_clean(self):
        cfg = UnderdampedConfig(objective=quad(), eta=1.0, c=1.0)
        model = build_underdamped(cfg)
        out = check_dissipation(v2_size_function(cfg), model,
                                v2_certificate(cfg),
                                default_state_samples(np.zeros(4), count=300,
                                                      seed=1),
                                default_theta_samples(2))
        assert out.violations == []

    def test_v3_quadratic_clean(self):
        obj = quad()
        ladder = build_smoothness_ladder(obj, h_max=1000.0)
        phi = phi_functions(ladder)
        cfg = UnderdampedConfig(objective=obj, phi=phi)
        model = build_underdamped(cfg)
        out = check_dissipation(v3_size_function(cfg), model,
                                v3_certificate(cfg),
                                default_state_samples(np.zeros(4), count=300,
                                                      seed=2),
                                default_theta_samples(2))
        assert out.violations == []

    def test_generator_bound_overdamped_holds(self):
        cfg = OverdampedConfig(objective=quad())
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = rng.standard_normal(2) * 3.0
            sig = rng.uniform(0.0, 2.0) * np.eye(2)
            lhs, rhs = generator_bound_overdamped(cfg, z, sig)
            assert lhs <= rhs + 1e-9 * (1.0 + abs(rhs))

    def test_scheduled_rate_generator_bound_holds(self):
        obj = quad()
        cfg = OverdampedConfig(objective=obj, eta=lambda h: 1.0 + h)
        ladder = build_smoothness_ladder(obj, h_max=100.0)
        with pytest.raises(ValueError):
            generator_bound_overdamped(cfg, np.ones(2), np.eye(2))
        rng = np.random.default_rng(1)
        for _ in range(20):
            z = rng.standard_normal(2) * 3.0
            sig = rng.uniform(0.0, 2.0) * np.eye(2)
            lhs, rhs = generator_bound_overdamped(cfg, z, sig, ladder)
            assert lhs <= rhs + 1e-9 * (1.0 + abs(rhs))

    def test_generator_matches_certificate_lhs(self):
        # the certificate check and the direct bound agree on the generator
        cfg = OverdampedConfig(objective=quad())
        model = build_overdamped(cfg)
        V = objective_size_function(cfg.objective)
        z = np.array([1.3, -0.2])
        sig = 0.7 * np.eye(2)
        lhs_bound, _ = generator_bound_overdamped(cfg, z, sig)
        lhs_gen = generator_apply(V, model, z, sig)
        assert abs(lhs_bound - lhs_gen) <= 1e-10 * (1.0 + abs(lhs_gen))
