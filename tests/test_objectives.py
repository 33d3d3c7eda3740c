"""Unit tests for objective oracles, logistic regression, and PL envelopes."""

from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import solve_continuous_are

from nsslab import lqr, objectives
from nsslab.objectives import (LogisticModel, check_nonseparable,
                               estimate_kpl_envelope, fit_theta_star,
                               load_logistic_csv, logistic_gradient,
                               logistic_hessian, logistic_lipschitz_constant,
                               logistic_loss, logistic_objective,
                               quadratic_objective, verify_pl)

from helpers import gradient_bound_check, random_stabilizing_gains

DEMO_CSV = (Path(__file__).resolve().parent.parent / "configs"
            / "logistic_demo.csv")


def demo_model(n=2, N=200, seed=42):
    rng = np.random.default_rng(seed)
    X1 = rng.standard_normal((N // 2, n)) + np.array([0.7, 0.3])[:n]
    X0 = rng.standard_normal((N // 2, n)) - np.array([0.7, 0.3])[:n]
    X = np.vstack([X1, X0]).T
    y = np.r_[np.ones(N // 2), np.zeros(N // 2)]
    return LogisticModel(X=X, y=y)


def _logistic(X, y) -> LogisticModel:
    return LogisticModel(X=np.array(X, dtype=float).T,
                         y=np.array(y, dtype=float))


# separability cases, each with whether the scipy-free certificate settles
# it (rows of X are samples here)
ROUTE_CASES = {
    "shipped-demo": (load_logistic_csv(str(DEMO_CSV)), True),
    "separable-pair": (_logistic([[-1], [1]], [0, 1]), False),
    "separable-4-rows": (_logistic([[1, 0], [2, 1], [-1, 0], [-2, -1]],
                                   [1, 1, 0, 0]), False),
    "duplicate-x": (_logistic([[0.5], [0.5]], [0, 1]), True),
    "xor": (_logistic([[1, 1], [-1, -1], [1, -1], [-1, 1]], [1, 1, 0, 0]),
            True),
    "xor-with-origin": (_logistic([[0, 0], [0, 1], [1, 0], [1, 1]],
                                  [0, 1, 1, 0]), True),
    # theta = (1, 1) separates the two axes strictly
    "axes": (_logistic([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0]),
             False),
    # theta = (0, 1) separates weakly, and no direction strictly
    "weakly-separable": (_logistic([[1, 0], [-1, 0], [0, 1]], [1, 1, 1]),
                         False),
    # M has rank 1, and theta = (1, -1) gives M theta = 0; its computed
    # sigma_min is of order 1e-17, not 0
    "rank-deficient": (_logistic([[1, 1], [-1, -1], [1, 1], [-1, -1]],
                                 [1, 1, 0, 0]), False),
    "opposite-labels": (_logistic([[1, 2], [1, 2], [-1, 1], [-1, 1]],
                                  [1, 0, 1, 0]), True),
    "fewer-samples-than-features": (_logistic([[1, 0, 3], [2, 1, 1]],
                                              [1, 0]), False),
}


class TestQuadratic:
    def test_minimizer_and_value(self):
        A = np.diag([1.0, 4.0])
        b = np.array([2.0, 4.0])
        obj = quadratic_objective(A, b)
        assert np.allclose(obj.minimizer, [2.0, 1.0])
        assert abs(obj.value_at(obj.minimizer) - obj.optimum_value) <= 1e-12
        assert np.allclose(obj.gradient_at(obj.minimizer), 0.0)

    def test_pl_identity_exact(self):
        # |grad|^2 = 2 lambda_min h exactly when A = lambda I
        obj = quadratic_objective(2.0 * np.eye(3), np.zeros(3))
        z = np.array([1.0, -2.0, 0.5])
        h = obj.value_at(z) - obj.optimum_value
        mu = float(obj.envelope(h))
        assert abs(np.linalg.norm(obj.gradient_at(z)) - mu) <= 1e-9

    def test_batched_value_and_gradient(self):
        obj = quadratic_objective(np.eye(2), np.zeros(2))
        zs = np.random.default_rng(0).standard_normal((7, 2))
        vals = np.asarray(obj.value(zs))
        grads = np.asarray(obj.gradient(zs))
        assert vals.shape == (7,)
        assert grads.shape == (7, 2)
        for z, v, g in zip(zs, vals, grads):
            assert abs(v - obj.value_at(z)) <= 1e-12
            assert np.allclose(g, obj.gradient_at(z))

    @pytest.mark.parametrize("zstar", [0.0, 1.5])
    def test_scalar_gradient_equals_matmul_on_edge_values(self, zstar):
        A = np.array([[0.4]])
        obj = quadratic_objective(A, A[0] * zstar)
        edge = np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf,
                         -np.inf, np.nan, 1.5, -2.5])
        with np.errstate(invalid="ignore", over="ignore"):
            for z in (edge[:, None], edge[:, None][::2], edge[:1, None],
                      edge[3:4], np.repeat(edge[:, None], 2, 1)[:, :1]):
                got = obj.gradient(z)
                ref = (z - obj.minimizer) @ A.T
                assert np.array_equal(got, ref, equal_nan=True)
                assert np.array_equal(np.signbit(got), np.signbit(ref))

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_diagonal_gradient_equals_matmul(self, n):
        rng = np.random.default_rng(n)
        A = np.diag(rng.uniform(0.1, 3.0, n))
        b = rng.standard_normal(n)
        b[::2] = 0.0  # z* = 0 there, so a -0.0 input gives a -0.0 difference
        obj = quadratic_objective(A, b)
        z = rng.standard_normal((301, 2 * n))
        mask = rng.random(z.shape) < 0.3
        z[mask] = rng.choice([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300],
                             size=mask.sum())
        for zs in (z[:, :n].copy(), z[:, ::2], z[:1, ::2], z[0, :n].copy()):
            got = obj.gradient(zs)
            ref = (zs - obj.minimizer) @ A.T
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_point_oracle_is_its_row_of_evaluate(self, n):
        # on finite points, signed zeros and overflowing squares included;
        # a non-diagonal A, or the logistic objective, has no point oracle
        rng = np.random.default_rng(10 + n)
        A = np.diag(10.0 ** rng.uniform(-3, 3, n))
        b = rng.standard_normal(n)
        b[::2] = 0.0
        obj = quadratic_objective(A, b)
        scale = 10.0 ** rng.uniform(-5, 5, (500, 1))
        z = rng.standard_normal((500, n)) * scale
        mask = rng.random(z.shape) < 0.2
        z[mask] = rng.choice([0.0, -0.0, 5e-324, -5e-324, 1e200, -1e300],
                             size=mask.sum())
        with np.errstate(over="ignore"):
            values, grads, H = obj.evaluate(z, hessian=True)
            got = [obj.point(zi) for zi in z.tolist()]
        assert {p[0] for p in got} == {True}
        for want, col in ((values, 1), (grads, 2), (H, 3)):
            floats = np.array([p[col] for p in got])
            assert np.array_equal(floats, want)
            assert np.array_equal(np.signbit(floats), np.signbit(want))
        full = A + 1e-3 * (np.eye(n, k=1) + np.eye(n, k=-1))
        assert n == 1 or quadratic_objective(full, b).point is None
        assert logistic_objective(demo_model()).point is None


class TestLogisticBasics:
    def test_loss_symmetry_at_zero(self):
        model = demo_model()
        assert abs(logistic_loss(model, np.zeros(2)) - np.log(2.0)) <= 1e-12

    def test_gradient_matches_fd(self):
        model = demo_model()
        theta = np.array([0.3, -0.8])
        g = logistic_gradient(model, theta)
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (logistic_loss(model, theta + e)
                  - logistic_loss(model, theta - e)) / (2 * h)
            assert abs(g[i] - fd) <= 1e-6

    def test_hessian_matches_fd(self):
        model = demo_model()
        theta = np.array([0.3, -0.8])
        H = logistic_hessian(model, theta)
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (logistic_gradient(model, theta + e)
                  - logistic_gradient(model, theta - e)) / (2 * h)
            assert np.max(np.abs(H[:, i] - fd)) <= 1e-5

    def test_hessian_bound(self):
        model = demo_model()
        L = logistic_lipschitz_constant(model)
        rng = np.random.default_rng(1)
        for theta in rng.standard_normal((50, 2)) * 5.0:
            top = np.linalg.norm(logistic_hessian(model, theta), 2)
            assert top <= L + 1e-9

    def test_gradient_bound_including_long_rays(self):
        model = demo_model()
        rng = np.random.default_rng(2)
        thetas = np.vstack([rng.standard_normal((50, 2)),
                            1e3 * rng.standard_normal((50, 2))])
        rep = gradient_bound_check(model, thetas)
        assert rep.holds


class TestFitThetaStar:
    def test_stationary_point(self):
        model = demo_model()
        theta = fit_theta_star(model)
        assert np.linalg.norm(logistic_gradient(model, theta)) <= 1e-10

    def test_stops_where_a_step_leaves_theta_unchanged(self):
        # at features times 1e8 the gradient norm stalls near 2.5e-9, above
        # the 1e-10 stop, while the steps stop moving theta
        model = load_logistic_csv(str(DEMO_CSV))
        big = LogisticModel(X=1e8 * model.X, y=model.y)
        theta = fit_theta_star(big)
        step = 1.0 / logistic_lipschitz_constant(big)
        g = logistic_gradient(big, theta)
        assert np.linalg.norm(g) > 1e-10
        assert np.array_equal(theta - step * g, theta)
        assert np.allclose(1e8 * theta, fit_theta_star(model), rtol=1e-6)

    def test_non_finite_gradient_raises(self):
        # X X^T overflows, so L and the first step are NaN
        demo = load_logistic_csv(str(DEMO_CSV))
        model = LogisticModel(X=1e300 * demo.X, y=demo.y)
        with np.errstate(all="ignore"), pytest.raises(RuntimeError,
                                                      match="non-finite"):
            fit_theta_star(model)

    def test_zero_lipschitz_constant_raises(self):
        # X X^T underflows to 0 at 1e-300, so there is no step 1/L
        demo = load_logistic_csv(str(DEMO_CSV))
        model = LogisticModel(X=1e-300 * demo.X, y=demo.y)
        with pytest.raises(ValueError, match="not finite"):
            fit_theta_star(model)

    def test_objective_wiring(self):
        model = demo_model()
        obj = logistic_objective(model)
        assert abs(obj.value_at(obj.minimizer) - obj.optimum_value) <= 1e-12
        assert np.linalg.norm(obj.gradient_at(obj.minimizer)) <= 1e-8


class TestSeparability:
    def test_separable_pair(self):
        model = LogisticModel(X=np.array([[-1.0], [1.0]]).T,
                              y=np.array([0.0, 1.0]))
        assert check_nonseparable(model).separable

    def test_duplicate_x_not_separable(self):
        model = LogisticModel(X=np.array([[0.5], [0.5]]).T,
                              y=np.array([0.0, 1.0]))
        assert not check_nonseparable(model).separable

    def test_xor_not_separable(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]).T
        y = np.array([0.0, 1.0, 1.0, 0.0])
        assert not check_nonseparable(LogisticModel(X=X, y=y)).separable

    def test_demo_dataset_not_separable(self):
        assert not check_nonseparable(demo_model()).separable

    @pytest.mark.parametrize("name", list(ROUTE_CASES))
    def test_certificate_agrees_with_lp(self, name):
        # the certificate only ever answers "nonseparable"; the LP is
        # called directly as the reference
        model, certified = ROUTE_CASES[name]
        M = ((2.0 * model.y - 1.0) * model.X).T
        lp = objectives._separability_by_lp(M)
        assert objectives._certify_nonseparable(M) == certified
        assert not (certified and lp.separable)
        report = check_nonseparable(model)
        assert report.separable == lp.separable
        if certified:
            # the margin the LP prints, sign bit included
            assert report.margin == lp.margin == 0.0
            assert np.signbit(report.margin) and np.signbit(lp.margin)
        # a power-of-two scale moves no sign of M theta, nor the verdict of
        # either route, which both read M scaled, nor the margin's digits
        for scale in (2.0**-1000, 2.0**1000):
            again = check_nonseparable(LogisticModel(X=scale * model.X,
                                                     y=model.y))
            assert again.separable == report.separable
            assert again.margin == scale * report.margin

    def test_lp_reads_the_scaled_m(self, monkeypatch):
        # the LP's absolute tolerances, applied to the unscaled M, called
        # XOR at 1e-300 separable and failed on the rows near 1e300
        monkeypatch.setattr(objectives, "_certify_nonseparable",
                            lambda M: False)
        xor = _logistic([[1e-300, 1e-300], [-1e-300, -1e-300],
                         [1e-300, -1e-300], [-1e-300, 1e-300]], [1, 1, 0, 0])
        report = check_nonseparable(xor)
        assert not report.separable
        assert report.margin == 0.0 and np.signbit(report.margin)
        # theta = (1, 0) gives the margin 3e299 on every row
        near_max = _logistic([[1e300, 2e300], [-1e300, 1e299],
                              [3e299, -1e300]], [1, 0, 1])
        report = check_nonseparable(near_max)
        assert report.separable and report.margin >= 3e299 * (1 - 1e-9)

    def test_inexact_scaling_is_refused(self):
        # 5e-324 times 2**-34 rounds to 0
        with pytest.raises(ValueError, match="power of two"):
            check_nonseparable(_logistic([[1e10, 5e-324], [-1, 1], [1, -1]],
                                         [1, 0, 1]))

    def test_separable_check_stops_the_descent_at_its_cap(self,
                                                          monkeypatch):
        # the 4-row separable set of the CLI tests: the descent never
        # certifies it, so it runs to the cap and then hands over to the LP
        import scipy.optimize

        model, _ = ROUTE_CASES["separable-4-rows"]
        weighings, at_lp = [0], []
        sigmoid, linprog = objectives._sigmoid, scipy.optimize.linprog

        def counted_sigmoid(z):
            weighings[0] += 1
            return sigmoid(z)

        def counted_linprog(*args, **kwargs):
            at_lp.append(weighings[0])
            return linprog(*args, **kwargs)

        monkeypatch.setattr(objectives, "_sigmoid", counted_sigmoid)
        monkeypatch.setattr(scipy.optimize, "linprog", counted_linprog)
        assert check_nonseparable(model).separable
        assert at_lp and at_lp[0] == objectives._CERTIFICATE_STEPS
        assert weighings[0] == objectives._CERTIFICATE_STEPS


class TestEnvelope:
    def test_quadratic_recovery(self):
        # the direction-uniform envelope of lambda I recovers sqrt(2 lambda h)
        obj = quadratic_objective(np.eye(3), np.zeros(3))
        env = estimate_kpl_envelope(obj, np.zeros(3), n_dirs=32, seed=2)
        hs = np.geomspace(1e-3, 10.0, 60)
        ratio = np.asarray(env(hs)) / np.sqrt(2.0 * hs)
        assert np.all(ratio >= 0.98)
        assert np.all(ratio <= 1.02)

    def test_envelope_verifies_on_held_out(self):
        model = demo_model()
        obj = logistic_objective(model)
        env = estimate_kpl_envelope(obj, obj.minimizer, n_dirs=256, seed=1)
        rng = np.random.default_rng(7)
        held = obj.minimizer + np.vstack(
            [s * rng.standard_normal((334, 2)) for s in (0.1, 1.0, 10.0)])
        rep = verify_pl(obj, env, held)
        assert rep.clean

    def test_quadratic_classic_envelope_zero_violations(self):
        obj = quadratic_objective(np.diag([1.0, 3.0]), np.zeros(2))
        pts = np.random.default_rng(3).standard_normal((200, 2)) * 4.0
        rep = verify_pl(obj, obj.envelope, pts)
        assert rep.clean

    def test_nonstationary_center_rejected(self):
        obj = logistic_objective(demo_model())
        with pytest.raises(ValueError):
            estimate_kpl_envelope(obj, obj.minimizer + 1.0, n_dirs=8)


def _trapezoid_inputs():
    rng = np.random.default_rng(5)
    # the h_fine grids of langevin.phi_functions (h_max + delta, 2000
    # points) and the r grid of estimate_kpl_envelope
    grids = [np.linspace(0.0, top, 2000) for top in (1.01, 3.7, 52.3)]
    grids.append(objectives._R_GRID)
    grids += [np.cumsum(rng.exponential(scale, size))
              for scale, size in ((1.0, 50), (1e-3, 777), (10.0, 3))]
    cases = [(rng.standard_normal(x.size) * 10.0 ** rng.integers(-5, 5), x)
             for x in grids]
    h = grids[0]
    cases.append((2.0 * np.sqrt(h) * h + 2.5 * h, h))
    cases += [(np.array([1.5]), np.array([0.3])),
              (np.array([1.5, -2.0]), np.array([0.3, 0.7])),
              (np.array([-0.0, -0.0, 1.0]), np.array([0.0, 1.0, 2.0]))]
    return cases


@pytest.mark.parametrize("y, x", _trapezoid_inputs())
def test_cumulative_trapezoid_matches_scipy_bit_for_bit(y, x):
    got = objectives._cumulative_trapezoid(y, x)
    want = cumulative_trapezoid(y, x, initial=0.0)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestCsv:
    def test_dataset_roundtrip(self, tmp_path):
        import csv
        model = demo_model()
        f = tmp_path / "data.csv"
        with open(f, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x1", "x2", "label"])
            for col, lab in zip(model.X.T, model.y):
                w.writerow([format(col[0], ".17g"), format(col[1], ".17g"),
                            int(lab)])
        back = load_logistic_csv(str(f))
        assert np.array_equal(back.X, model.X)
        assert np.array_equal(back.y, model.y)


def per_point_oracle(obj, z):
    """The per-point formulas that Objective.evaluate batches: value_at,
    gradient_at and column-by-column central differences of gradient_at."""
    h = 1e-5 * (1.0 + float(np.linalg.norm(z)))
    eye = np.eye(obj.dim)
    cols = [(obj.gradient_at(z + h * eye[i])
             - obj.gradient_at(z - h * eye[i])) / (2.0 * h)
            for i in range(obj.dim)]
    H = np.column_stack(cols)
    return obj.value_at(z), obj.gradient_at(z), 0.5 * (H + H.T)


class TestBatchedOracle:
    def assert_matches_per_point(self, obj, Z):
        values, grads, hess = obj.evaluate(Z, hessian=True)
        assert values.shape == (len(Z),) and grads.shape == Z.shape
        assert hess.shape == (len(Z), obj.dim, obj.dim)
        for z, v, g, H in zip(Z, values, grads, hess):
            v_ref, g_ref, H_ref = per_point_oracle(obj, z)
            assert np.array_equal(v, v_ref, equal_nan=True)
            assert np.array_equal(g, g_ref, equal_nan=True)
            assert np.array_equal(H, H_ref, equal_nan=True)
            assert np.array_equal(obj.hessian_at(z), H_ref, equal_nan=True)
        v_only, g_only, none = obj.evaluate(Z)
        assert none is None
        assert np.array_equal(v_only, values, equal_nan=True)
        assert np.array_equal(g_only, grads, equal_nan=True)

    def test_quadratic_without_hessian_is_bitwise_per_point(self):
        # row-wise oracles (einsum rather than a BLAS matmul, whose rounding
        # can depend on the batch size), so only the batched difference
        # scheme itself could move bits
        A = np.array([[3.0, 0.4, 0.1], [0.4, 2.0, -0.3], [0.1, -0.3, 1.0]])
        zstar = np.array([1.0, -2.0, 0.5])

        def value(z):
            d = np.asarray(z, dtype=float) - zstar
            return 0.5 * np.einsum("...i,ij,...j->...", d, A, d)

        def gradient(z):
            d = np.asarray(z, dtype=float) - zstar
            return np.einsum("bi,ji->bj", d, A)

        obj = objectives.Objective(value=value, gradient=gradient, dim=3,
                                   optimum_value=0.0, hessian=None)
        Z = np.random.default_rng(3).standard_normal((7, 3)) * 4.0
        self.assert_matches_per_point(obj, Z)

    def test_scalar_lqr_is_bitwise_per_point(self):
        one = np.array([[1.0]])
        problem = lqr.LqrProblem(A=one, F=one, Q=one, R=one)
        profile = lqr.solve_riccati(problem, K0=2.0 * one)
        obj = lqr.lqr_objective(problem, profile)
        Z = np.r_[np.linspace(1.05, 6.0, 9), obj.minimizer + 0.3, 0.5][:, None]
        self.assert_matches_per_point(obj, Z)  # the last gain is unstable
        assert np.isnan(obj.evaluate(Z, hessian=True)[2][-1]).all()

    def test_two_state_single_input_lqr_is_bitwise_per_point(self):
        rng = np.random.default_rng(1)
        problem = lqr.LqrProblem(A=rng.standard_normal((2, 2)),
                                 F=rng.standard_normal((2, 1)),
                                 Q=np.eye(2), R=np.eye(1))
        P = solve_continuous_are(problem.A, problem.F, problem.Q, problem.R)
        profile = lqr.solve_riccati(problem, K0=problem.F.T @ P)
        gains = random_stabilizing_gains(problem, profile, 6, 1,
                                             spread=0.5)
        obj = lqr.lqr_objective(problem, profile)
        self.assert_matches_per_point(obj, gains.reshape(6, 2))

    def test_analytic_hessian_is_stacked_per_point(self):
        obj = logistic_objective(demo_model())
        Z = np.random.default_rng(4).standard_normal((5, 2))
        values, grads, hess = obj.evaluate(Z, hessian=True)
        assert np.array_equal(values, obj.value(Z))
        assert np.array_equal(grads, obj.gradient(Z))
        for z, H in zip(Z, hess):
            assert np.array_equal(H, obj.hessian_at(z))

    def test_joint_oracle_makes_one_call_per_evaluation(self):
        quad = quadratic_objective(np.diag([1.0, 2.0]), np.zeros(2))
        batches = []

        def joint(rows):
            batches.append(rows.shape)
            return quad.value(rows), quad.gradient(rows)

        obj = objectives.Objective(value=None, gradient=None, dim=2,
                                   optimum_value=0.0,
                                   value_and_gradient=joint)
        Z = np.ones((4, 2))
        obj.evaluate(Z, hessian=True)
        obj.evaluate(Z)
        assert batches == [(4 * (1 + 2 * 2), 2), (4, 2)]
