"""Unit tests for the LQR policy-optimization toolkit."""

import numpy as np
import pytest
from scipy.linalg import solve_continuous_are

from nsslab import lqr
from nsslab.lqr import (HURWITZ_MARGIN, ConditioningError, LqrPlProfile,
                        LqrProblem, StabilityError, batched_gain_stats,
                        eta_schedule_lqr, gain_noise_schedule, hurwitz_mask,
                        lqr_objective, mu5_class_function,
                        smoothness_profile_L3, solve_lyapunov, solve_riccati,
                        vec_gain)

from helpers import random_stabilizing_gains


def mu5(profile: LqrPlProfile, h) -> float | np.ndarray:
    """K-PL modulus h / (b1 h + b2), bounded by 1/b1."""
    h = np.asarray(h, dtype=float)
    out = h / (profile.b1 * h + profile.b2)
    return float(out) if out.ndim == 0 else out


def scalar_problem():
    one = np.array([[1.0]])
    return LqrProblem(A=one, F=one, Q=one, R=one)


def random_problem(n, m, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    F = rng.standard_normal((n, m))
    Q = np.eye(n)
    R = np.eye(m)
    return LqrProblem(A=A, F=F, Q=Q, R=R)


def spectral_abscissa(M):
    return float(np.max(np.real(np.linalg.eigvals(M))))


def reference_gain_point(problem, K):
    """The dense per-gain solve as it was before the batched Lyapunov
    kernel served every caller: column-major Kronecker operators, one gain
    at a time.  Returns (cost, gradient)."""
    def dense_lyapunov(A_cl, M):
        n = A_cl.shape[0]
        eye = np.eye(n)
        op = np.kron(eye, A_cl.T) + np.kron(A_cl.T, eye)
        P = np.linalg.solve(op, -M.reshape(-1, order="F")).reshape(
            n, n, order="F")
        return 0.5 * (P + P.T)

    K = np.atleast_2d(np.asarray(K, dtype=float))
    A_cl = problem.A - problem.F @ K
    assert spectral_abscissa(A_cl) < -HURWITZ_MARGIN
    P = dense_lyapunov(A_cl, problem.Q + K.T @ problem.R @ K)
    Y = dense_lyapunov(A_cl.T, np.eye(problem.n))
    grad = 2.0 * (problem.R @ K - problem.F.T @ P) @ Y
    return float(np.trace(P)), grad


def gain_stats(problem, gains):
    """Costs and (m, n) gradients of a stack of stabilizing gains, read
    off one batched_gain_stats call."""
    gains = np.asarray(gains, dtype=float).reshape(-1, problem.m, problem.n)
    ok, costs, grads = batched_gain_stats(
        problem, gains.reshape(len(gains), -1))
    assert ok.all()
    return costs, grads.reshape(gains.shape)


class TestProblemValidation:
    def test_indefinite_q_rejected(self):
        with pytest.raises(ValueError):
            LqrProblem(A=np.eye(2), F=np.eye(2), Q=np.diag([1.0, -1.0]),
                       R=np.eye(2))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LqrProblem(A=np.eye(2), F=np.eye(2), Q=np.eye(3), R=np.eye(2))

    def test_unstabilizable_pair_rejected(self):
        # unstable mode with zero input column cannot be moved
        A = np.diag([1.0, -1.0])
        F = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError):
            LqrProblem(A=A, F=F, Q=np.eye(2), R=np.eye(1))

    def test_scalar_rule_agrees_with_riccati_probe(self):
        # a well-conditioned grid: scipy's probe is the matrix rule, and
        # the closed form a < 0 or f != 0 must accept exactly what it does
        grid = [(a, f, q, r)
                for a in (-10.0, -2.0, -1e-3, 0.0, -0.0, 1e-3, 1.0, 3.0, 10.0)
                for f in (0.0, -0.0, 1e-3, -1e-3, 1.0, -2.0, 10.0)
                for q in (1e-2, 1.0, 1e2) for r in (1e-2, 1.0, 1e2)]
        assert len(grid) == 567
        for a, f, q, r in grid:
            A, F, Q, R = (np.array([[x]]) for x in (a, f, q, r))
            try:
                solve_continuous_are(A, F, Q, R)
                want = True
            except np.linalg.LinAlgError:
                want = False
            try:
                LqrProblem(A=A, F=F, Q=Q, R=R)
                got = True
            except ValueError as exc:
                assert "not stabilizable" in str(exc)
                got = False
            assert got == want, (a, f, q, r)

    def test_scalar_rule_accepts_what_the_probe_misses(self):
        # stabilizable (f != 0), but the Riccati probe fails to solve it
        A, F, Q, R = (np.array([[x]]) for x in (1e6, 1e-6, 1.0, 1e2))
        with pytest.raises(np.linalg.LinAlgError):
            solve_continuous_are(A, F, Q, R)
        assert LqrProblem(A=A, F=F, Q=Q, R=R).scalars == (1e6, 1e-6, 1.0, 1e2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [1, 2])
    def test_non_finite_entries_rejected(self, bad, n):
        F = np.ones((n, 1))
        F[0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            LqrProblem(A=np.eye(n), F=F, Q=np.eye(n), R=np.eye(1))


class TestLyapunovSolve:
    def test_scalar_closed_form(self):
        # a p + p a + m = 0: p = m / (-2a); a = -2, m = 1 gives p = 1/4
        a = np.array([-2.0, -0.5, -4.0, -1e-3])
        m = np.array([1.0, 3.0, 0.5, 2.0])
        P = solve_lyapunov(a.reshape(-1, 1, 1), m.reshape(-1, 1, 1))
        assert P.shape == (4, 1, 1)
        assert abs(P[0, 0, 0] - 0.25) <= 1e-12
        assert np.all(np.abs(P[:, 0, 0] - m / (-2.0 * a))
                      <= 1e-12 * np.abs(m / a))

    def test_residual_contract_on_random_instances(self):
        # the same 100 instances as one stack per dimension
        rng = np.random.default_rng(0)
        stacks = {}
        for _ in range(100):
            n = rng.integers(2, 11)
            A = rng.standard_normal((n, n))
            A_cl = A - (spectral_abscissa(A) + 1.0) * np.eye(n)
            Msym = rng.standard_normal((n, n))
            Msym = Msym @ Msym.T + np.eye(n)
            stacks.setdefault(n, []).append((A_cl, Msym))
        assert sum(map(len, stacks.values())) == 100
        for pairs in stacks.values():
            As, Ms = (np.array(x) for x in zip(*pairs))
            for A_cl, Msym, P in zip(As, Ms, solve_lyapunov(As, Ms)):
                res = np.linalg.norm(A_cl.T @ P + P @ A_cl + Msym, "fro")
                assert res <= 1e-10 * (np.linalg.norm(Msym, "fro")
                                       + np.linalg.norm(P, "fro"))

    def test_stack_members_solve_as_if_alone(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((6, 3, 3)) - 4.0 * np.eye(3)
        M = rng.standard_normal((6, 3, 3))
        M = M @ np.swapaxes(M, 1, 2) + np.eye(3)
        P = solve_lyapunov(A, M)
        for b in range(6):
            assert np.array_equal(P[b], solve_lyapunov(A[b:b + 1],
                                                       M[b:b + 1])[0])
        assert np.array_equal(P, np.swapaxes(P, 1, 2))

    def test_dual_stack_solves_the_transposed_system(self):
        # the second stack is solved on L^T, which is the operator of A^T
        # entry for entry: both halves equal the one-stack solves bit for bit
        rng = np.random.default_rng(2)
        for n in (1, 2, 4):
            A = rng.standard_normal((5, n, n)) - 4.0 * np.eye(n)
            M, N = rng.standard_normal((2, 5, n, n))
            P, Y = solve_lyapunov(A, M, N)
            assert np.array_equal(P, solve_lyapunov(A, M))
            assert np.array_equal(Y, solve_lyapunov(np.swapaxes(A, 1, 2), N))

    def test_non_hurwitz_rejected(self, monkeypatch):
        # The kernel leaves the Hurwitz test to its callers.  K = 0 on the
        # scalar unit problem is the instance a = 1, m = 1: solve_riccati
        # raises StabilityError, batched_gain_stats masks the row, and no
        # non-Hurwitz matrix ever reaches the kernel.  The 3x2 batch makes
        # one stacked call that solves for P_K and Y_K together; the scalar
        # batch divides elementwise and makes none.
        seen = []

        def recording(A, M, N=None):
            assert N is not None
            seen.append(np.array(A))
            return solve_lyapunov(A, M, N)

        monkeypatch.setattr(lqr, "solve_lyapunov", recording)
        big = random_problem(3, 2, 5)
        assert spectral_abscissa(big.A) > 0
        cases = [(scalar_problem(), np.zeros((1, 1)), np.array([[2.0]]), 0),
                 (big, np.zeros((2, 3)), _stabilizing_start(big), 1)]
        for problem, unstable, stable, calls in cases:
            with pytest.raises(StabilityError):
                solve_riccati(problem, K0=unstable)
            assert seen == []
            ok, costs, grads = batched_gain_stats(
                problem, np.stack([unstable.ravel(), stable.ravel()]))
            assert ok.tolist() == [False, True]
            assert np.isnan(costs[0]) and np.isnan(grads[0]).all()
            assert np.isfinite(costs[1]) and np.isfinite(grads[1]).all()
            assert len(seen) == calls
            assert all(A.shape[0] == 1 and hurwitz_mask(A).all()
                       for A in seen)
            seen.clear()

    def test_singular_operator_is_a_conditioning_error(self):
        # a = 0 makes the operator 2a singular
        with pytest.raises(ConditioningError):
            solve_lyapunov(np.array([[[-1.0]], [[0.0]]]),
                           np.ones((2, 1, 1)))

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            solve_lyapunov(np.zeros((1, 31, 31)), np.zeros((1, 31, 31)))


class TestGainPoint:
    """Cost and gradient at single gains, read off batched_gain_stats."""

    def test_scalar_cost_closed_form(self):
        # J(k) = (1 + k^2) / (2k - 2) for the scalar unit problem
        problem = scalar_problem()
        ks = np.array([1.5, 2.0, 4.0])
        costs, _ = gain_stats(problem, ks)
        assert np.all(np.abs(costs - (1 + ks**2) / (2 * ks - 2)) <= 1e-12)

    def test_scalar_gradient_closed_form(self):
        # dJ/dk = (2k^2 - 4k - 2) / (2k - 2)^2
        problem = scalar_problem()
        ks = np.array([1.5, 2.0, 4.0])
        _, grads = gain_stats(problem, ks)
        want = (2 * ks**2 - 4 * ks - 2) / (2 * ks - 2) ** 2
        assert np.all(np.abs(grads[:, 0, 0] - want) <= 1e-10)

    def test_gradient_matches_fd_on_random_instances(self):
        for n, m, seed in [(2, 1, 1), (3, 2, 2), (4, 2, 3)]:
            problem = random_problem(n, m, seed)
            profile = solve_riccati(problem, K0=_stabilizing_start(problem))
            gains = random_stabilizing_gains(problem, profile, 5, seed,
                                             spread=0.3)
            _, grads = gain_stats(problem, gains)
            for K, G in zip(gains, grads):
                fd = _fd_gradient(problem, K, 1e-6)
                denom = max(1.0, np.linalg.norm(G))
                assert np.linalg.norm(G - fd) / denom <= 1e-5

    def test_nonstabilizing_gain_raises(self):
        # K0 = 0.5 leaves a - f k = 0.5; K0 = 1 sits on the boundary
        for k in (0.5, 1.0):
            with pytest.raises(StabilityError):
                solve_riccati(scalar_problem(), K0=np.array([[k]]))
        problem = random_problem(3, 2, 5)
        assert spectral_abscissa(problem.A) > 0
        with pytest.raises(StabilityError):
            solve_riccati(problem, K0=np.zeros((2, 3)))


def _stabilizing_start(problem):
    P = solve_continuous_are(problem.A, problem.F, problem.Q, problem.R)
    return np.linalg.solve(problem.R, problem.F.T @ P)


def _fd_gradient(problem, K, h):
    """Central differences of the cost, every K +- h E_ij in one batch."""
    K = np.atleast_2d(K)
    E = h * np.eye(K.size).reshape(K.size, *K.shape)
    costs, _ = gain_stats(problem, np.concatenate([K + E, K - E]))
    return ((costs[:K.size] - costs[K.size:]) / (2 * h)).reshape(K.shape)


class TestRiccati:
    def test_scalar_optimum(self):
        profile = solve_riccati(scalar_problem(), K0=np.array([[2.0]]))
        ref = 1.0 + np.sqrt(2.0)
        assert abs(profile.J2star - ref) <= 1e-8
        assert abs(profile.Kstar[0, 0] - ref) <= 1e-8
        assert abs(profile.Ystar[0, 0] - 1.0 / (2.0 * np.sqrt(2.0))) <= 1e-10

    def test_gradient_zero_at_optimum(self):
        problem = random_problem(3, 2, 5)
        profile = solve_riccati(problem, K0=_stabilizing_start(problem))
        _, grads = gain_stats(problem, profile.Kstar)
        assert np.linalg.norm(grads) <= 1e-8

    def test_unstable_a_needs_start(self):
        with pytest.raises(ValueError):
            solve_riccati(scalar_problem())

    def test_matches_scipy_riccati_solution(self):
        for n, m, seed in [(2, 1, 1), (3, 2, 2), (4, 2, 3)]:
            problem = random_problem(n, m, seed)
            profile = solve_riccati(problem, K0=_stabilizing_start(problem))
            P = solve_continuous_are(problem.A, problem.F, problem.Q,
                                     problem.R)
            assert np.linalg.norm(profile.Pstar - P) <= 1e-8 * max(
                1.0, np.linalg.norm(P))

    @pytest.mark.parametrize("corrupt", ["P", "Y"])
    def test_residual_miss_is_a_conditioning_error(self, monkeypatch,
                                                   corrupt):
        # every solve of the iteration is checked: corrupt only the P_K
        # half or only the Y_K half of the one stacked solve
        kernel = lqr.solve_lyapunov

        def off_by_a_little(A, M, N):
            P, Y = kernel(A, M, N)
            return (P + 1e-6, Y) if corrupt == "P" else (P, Y + 1e-6)

        solve_riccati(scalar_problem(), K0=np.array([[2.0]]))
        monkeypatch.setattr(lqr, "solve_lyapunov", off_by_a_little)
        with pytest.raises(ConditioningError):
            solve_riccati(scalar_problem(), K0=np.array([[2.0]]))
        # the per-step statistics never had the check
        ok, costs, _ = batched_gain_stats(scalar_problem(), [[2.0]])
        assert ok[0] and np.isfinite(costs[0])


class TestPlProfile:
    def test_mu5_lower_bounds_gradient_norm(self):
        for n, m, seed in [(2, 1, 11), (3, 2, 12), (4, 2, 13)]:
            problem = random_problem(n, m, seed)
            profile = solve_riccati(problem, K0=_stabilizing_start(problem))
            gains = random_stabilizing_gains(problem, profile, 30, seed,
                                             spread=0.5)
            costs, grads = gain_stats(problem, gains)
            for c, G in zip(costs, grads):
                h = c - profile.J2star
                assert np.linalg.norm(G, "fro") >= mu5(profile, h) - 1e-9

    def test_mu5_class_function_wraps_formula(self):
        profile = solve_riccati(scalar_problem(), K0=np.array([[2.0]]))
        f = mu5_class_function(profile)
        assert abs(float(f(2.0)) - mu5(profile, 2.0)) <= 1e-15

    def test_smoothness_profile_monotone(self):
        problem = scalar_problem()
        profile = solve_riccati(problem, K0=np.array([[2.0]]))
        hs = np.linspace(0.0, 50.0, 100)
        Ls = smoothness_profile_L3(profile, problem, hs)
        assert np.all(np.diff(Ls) > 0)

    def test_eta_schedules(self):
        assert eta_schedule_lqr("nss", 1.0) == 16.0
        assert eta_schedule_lqr("scnss", 1.0) == 8.0
        with pytest.raises(ValueError):
            eta_schedule_lqr("bogus", 1.0)


class TestBatchedStats:
    def test_matches_gain_point(self):
        problem = random_problem(3, 2, 21)
        profile = solve_riccati(problem, K0=_stabilizing_start(problem))
        gains = random_stabilizing_gains(problem, profile, 20, 0, spread=0.4)
        thetas = gains.reshape(20, -1)
        ok, costs, grads = batched_gain_stats(problem, thetas)
        assert ok.all()
        for K, c, g in zip(gains, costs, grads):
            cost, grad = reference_gain_point(problem, K)
            assert abs(c - cost) <= 1e-9 * max(1.0, abs(cost))
            assert np.linalg.norm(g - vec_gain(grad)) <= 1e-9

    def test_nonstabilizing_entries_nan(self):
        problem = scalar_problem()
        ok, costs, grads = batched_gain_stats(
            problem, np.array([[2.0], [0.5]]))
        assert ok.tolist() == [True, False]
        assert np.isfinite(costs[0]) and np.isnan(costs[1])
        assert np.isnan(grads[1]).all()

    def test_vec_roundtrip_row_major(self):
        K = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(vec_gain(K).reshape(2, 3), K)
        assert np.array_equal(vec_gain(K), np.arange(6.0))


def eigvals_mask(A_cl):
    """The spectral test hurwitz_mask must reproduce on every path."""
    return np.max(np.real(np.linalg.eigvals(A_cl)), axis=1) < -HURWITZ_MARGIN


class TestHurwitzMask:
    def test_scalar_path_matches_eigvals_on_edge_values(self):
        tiny = np.finfo(float).smallest_subnormal
        edge = [0.0, -0.0, 1e300, -1e300, 1.0, -1.0,
                tiny, -tiny, 1e-310, -1e-310, 2.2e-308, -2.2e-308,
                -HURWITZ_MARGIN, HURWITZ_MARGIN,
                np.nextafter(-HURWITZ_MARGIN, -np.inf),
                np.nextafter(-HURWITZ_MARGIN, np.inf)]
        A_cl = np.array(edge).reshape(-1, 1, 1)
        got = hurwitz_mask(A_cl)
        assert np.array_equal(got, eigvals_mask(A_cl))
        assert got.tolist()[-4:] == [False, False, True, False]

    def test_scalar_path_matches_eigvals_on_random_scales(self):
        rng = np.random.default_rng(7)
        vals = rng.standard_normal(20_000) * 10.0 ** rng.integers(-320, 300,
                                                                  20_000)
        A_cl = vals.reshape(-1, 1, 1)
        assert np.array_equal(hurwitz_mask(A_cl), eigvals_mask(A_cl))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises_like_eigvals(self, bad):
        for n in (1, 2):
            A_cl = np.full((3, n, n), -1.0)
            A_cl[1, 0, 0] = bad
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.eigvals(A_cl)
            with pytest.raises(np.linalg.LinAlgError):
                hurwitz_mask(A_cl)

    def test_matrix_path_is_the_spectral_test(self):
        # a stable-looking diagonal can hide an unstable pair
        A_cl = np.array([[[-1.0, 0.0], [0.0, -2.0]],
                         [[-1.0, 5.0], [5.0, -1.0]],
                         [[0.0, 1.0], [-1.0, 0.0]],
                         [[-1.0, 1.0], [-1.0, -1.0]]])
        assert hurwitz_mask(A_cl).tolist() == [True, False, False, True]
        assert np.array_equal(hurwitz_mask(A_cl), eigvals_mask(A_cl))

    def test_domain_test_agrees_with_batched_stats(self):
        for n, m, seed in [(1, 1, 31), (2, 1, 32), (3, 2, 33)]:
            problem = random_problem(n, m, seed)
            profile = solve_riccati(problem, K0=_stabilizing_start(problem))
            obj = lqr_objective(problem, profile)
            rng = np.random.default_rng(seed)
            thetas = (vec_gain(profile.Kstar)
                      + 2.0 * rng.standard_normal((200, m * n)))
            ok, costs, _ = batched_gain_stats(problem, thetas)
            assert 0 < ok.sum() < ok.size
            assert np.array_equal(obj.domain_test(thetas), ok)
            assert np.array_equal(np.isfinite(costs), ok)


class TestObjectiveWrapper:
    def test_multiaxis_batches(self):
        problem = scalar_problem()
        profile = solve_riccati(problem, K0=np.array([[2.0]]))
        obj = lqr_objective(problem, profile)
        grid = np.linspace(1.5, 4.0, 12).reshape(3, 4, 1)
        vals = np.asarray(obj.value(grid))
        assert vals.shape == (3, 4)
        assert np.asarray(obj.gradient(grid)).shape == (3, 4, 1)
        assert np.asarray(obj.domain_test(grid)).shape == (3, 4)

    def test_optimum_wiring(self):
        problem = scalar_problem()
        profile = solve_riccati(problem, K0=np.array([[2.0]]))
        obj = lqr_objective(problem, profile)
        assert abs(obj.value_at(obj.minimizer) - obj.optimum_value) <= 1e-10
        assert not obj.domain_test(np.array([[0.5]]))[0]


class TestNoiseSchedule:
    def test_kron_structure(self):
        sched = gain_noise_schedule(np.array([[0.3]]), 2, horizon=1.0)
        assert np.allclose(sched.sigmas, 0.3 * np.eye(2))

    def test_matrix_sigma1(self):
        S1 = np.array([[0.2, 0.1], [0.0, 0.3]])
        sched = gain_noise_schedule(S1, 3, horizon=1.0)
        assert np.allclose(sched.sigmas, np.kron(S1, np.eye(3)))
