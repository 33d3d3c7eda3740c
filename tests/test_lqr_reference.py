"""The one-solve LQR gain statistics against the two-solve code they
replaced.

The reference below is the earlier implementation, kept verbatim: a
Lyapunov kernel that builds its Kronecker operator from broadcast
identity stacks, the ``_lyapunov_pairs`` generator that fed it the P_K
and Y_K systems as two separate solves, ``batched_gain_stats`` with its
boolean-mask copies and NaN fill on every call, and the ``_checked_solves``
of the Kleinman-Newton iteration.  The current module stacks [L; L^T] into
one solve; every output must agree bit for bit.
"""

import numpy as np
import pytest
from scipy.linalg import solve_continuous_are

from nsslab import lqr
from nsslab.lqr import (HURWITZ_MARGIN, ConditioningError, LqrProblem,
                        StabilityError, _closed_loop, batched_gain_stats,
                        hurwitz_mask, lqr_objective, solve_riccati)
from nsslab.objectives import _stencil


# ---------------------------------------------------------------- reference

def reference_solve_lyapunov(A, M):
    nb, n = A.shape[:2]
    if n > 30:
        raise ValueError("dense Lyapunov solve capped at n = 30")
    eye = np.broadcast_to(np.eye(n), (nb, n, n))
    AT = np.swapaxes(A, 1, 2)

    def bkron(X, Z):
        # kron(X_b, Z_b)[ki, lj] = X_b[k,l] Z_b[i,j]
        return np.einsum("bkl,bij->bkilj", X, Z).reshape(nb, n * n, n * n)

    try:
        P = np.linalg.solve(bkron(AT, eye) + bkron(eye, AT),
                            -M.reshape(nb, n * n)[..., None])
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"singular Lyapunov operator: {exc}") from exc
    P = P[..., 0].reshape(nb, n, n)
    return 0.5 * (P + np.swapaxes(P, 1, 2))


def reference_lyapunov_pairs(problem, Ks, A_cl):
    M_P = problem.Q[None] + np.einsum("bmi,mk,bkj->bij", Ks, problem.R, Ks)
    return ((A_cl, M_P),
            (np.swapaxes(A_cl, 1, 2),
             np.broadcast_to(np.eye(problem.n), A_cl.shape)))


def reference_batched_gain_stats(problem, thetas):
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    B = thetas.shape[0]
    n, m = problem.n, problem.m
    Ks = thetas.reshape(B, m, n)
    A_cl = _closed_loop(problem, Ks)
    ok = hurwitz_mask(A_cl)

    costs = np.full(B, np.nan)
    grads = np.full((B, m * n), np.nan)
    if not ok.any():
        return ok, costs, grads

    Kb = Ks[ok]
    P, Y = (reference_solve_lyapunov(A, M)
            for A, M in reference_lyapunov_pairs(problem, Kb, A_cl[ok]))
    G = 2.0 * np.einsum("bmi,bij->bmj",
                        np.einsum("mk,bki->bmi", problem.R, Kb)
                        - np.einsum("nm,bni->bmi", problem.F, P),
                        Y)
    costs[ok] = np.trace(P, axis1=1, axis2=2)
    grads[ok] = G.reshape(-1, m * n)
    return ok, costs, grads


def reference_checked_solves(problem, K):
    Ks = K[None]
    A_cl = _closed_loop(problem, Ks)
    if not hurwitz_mask(A_cl)[0]:
        raise StabilityError("gain not stabilizing: closed loop not Hurwitz")
    out = []
    for A, M in reference_lyapunov_pairs(problem, Ks, A_cl):
        X = reference_solve_lyapunov(A, M)[0]
        A, M = A[0], M[0]
        res = np.linalg.norm(A.T @ X + X @ A + M, "fro")
        if res > 1e-10 * (np.linalg.norm(M, "fro") + np.linalg.norm(X, "fro")):
            raise ConditioningError(
                f"Lyapunov residual {res:g} above contract")
        out.append(X)
    return out


def reference_riccati(problem, K0):
    """(Kstar, Pstar, Ystar) of the Kleinman-Newton loop of solve_riccati."""
    K = np.atleast_2d(np.asarray(K0, dtype=float))
    Rinv = np.linalg.inv(problem.R)
    P, Ystar = reference_checked_solves(problem, K)
    for _ in range(200):
        K_next = Rinv @ problem.F.T @ P
        delta = np.linalg.norm(K_next - K, "fro")
        K = K_next
        P, Ystar = reference_checked_solves(problem, K)
        if delta <= 1e-12:
            break
    else:
        raise ConditioningError("Kleinman-Newton did not converge in 200 steps")
    return K, P, Ystar


# ---------------------------------------------------------------- cases

def scalar_problem():
    one = np.array([[1.0]])
    return LqrProblem(A=one, F=one, Q=one, R=one)


def random_problem(n, m, seed):
    rng = np.random.default_rng(seed)
    return LqrProblem(A=rng.standard_normal((n, n)),
                      F=rng.standard_normal((n, m)), Q=np.eye(n), R=np.eye(m))


def stabilizing_start(problem):
    P = solve_continuous_are(problem.A, problem.F, problem.Q, problem.R)
    return np.linalg.solve(problem.R, problem.F.T @ P)


def assert_same_bits(problem, thetas):
    got = batched_gain_stats(problem, thetas)
    want = reference_batched_gain_stats(problem, thetas)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert np.array_equal(g, w, equal_nan=True)
    return got[0]


@pytest.mark.parametrize("B", [1, 3, 100])
def test_scalar_batches_match_reference(B):
    # gains below 1 are unstable on the scalar unit problem (a - k >= 0)
    rng = np.random.default_rng(B)
    thetas = 2.4 + 0.5 * rng.standard_normal((B, 1))
    thetas[::3] = rng.uniform(-1.0, 1.0, size=thetas[::3].shape)
    ok = assert_same_bits(scalar_problem(), thetas)
    assert not ok[0]
    if B > 1:
        assert ok.any()
    assert_same_bits(scalar_problem(), np.full((B, 1), 2.0))  # all stable
    assert_same_bits(scalar_problem(), np.zeros((B, 1)))  # none stable


def test_random_scalar_gains_match_reference():
    rng = np.random.default_rng(20000)
    thetas = rng.uniform(-2.0, 12.0, size=(20000, 1))
    ok = assert_same_bits(scalar_problem(), thetas)
    assert 0 < ok.sum() < ok.size
    for chunk in np.array_split(thetas[:300], 30):  # small mixed batches
        assert_same_bits(scalar_problem(), chunk)


# (a, f, q, r): open-loop stable and unstable, negative input gain
SCALAR_PROBLEMS = [(3.0, 2.0, 0.5, 4.0), (-0.5, 2.0, 3.0, 0.25),
                   (2.0, -1.5, 1.0, 2.0), (-1.0, -0.3, 7.0, 0.1),
                   (0.25, 1e-3, 1e3, 1e-3)]


@pytest.mark.parametrize("a, f, q, r", SCALAR_PROBLEMS)
@pytest.mark.parametrize("B", [1, 3, 100])
def test_scalar_problems_match_reference(a, f, q, r, B):
    # gains a/f +- sign(f) (1 + s) put a - f k at -+|f| (1 + s), on either
    # side of the Hurwitz margin: all stabilize, or none do
    problem = LqrProblem(A=[[a]], F=[[f]], Q=[[q]], R=[[r]])
    rng = np.random.default_rng(B)
    spread = 10.0 ** rng.uniform(-8.0, 8.0, size=(B, 1))
    signs = rng.choice([-1.0, 1.0], size=(B, 1))
    ok = assert_same_bits(problem, signs * spread)
    if B == 100:
        assert 0 < ok.sum() < B
    shift = np.sign(f) * (1.0 + spread)
    assert assert_same_bits(problem, a / f + shift).all()
    assert not assert_same_bits(problem, a / f - shift).any()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_scalar_gain_raises(bad):
    thetas = np.array([[2.0], [bad], [3.0]])
    for stats in (batched_gain_stats, reference_batched_gain_stats):
        with pytest.raises(np.linalg.LinAlgError):
            stats(scalar_problem(), thetas)


@pytest.mark.parametrize("n, m, seed", [(2, 1, 1), (3, 2, 2), (4, 2, 3)])
def test_matrix_batches_match_reference(n, m, seed):
    problem = random_problem(n, m, seed)
    K0 = stabilizing_start(problem)
    rng = np.random.default_rng(seed)
    thetas = K0.ravel() + 0.4 * rng.standard_normal((300, m * n))
    ok = assert_same_bits(problem, thetas)
    assert ok.any()
    assert_same_bits(problem, thetas[ok])  # the all-stable path


@pytest.mark.parametrize("problem, K0", [
    (scalar_problem(), np.array([[2.0]])),
    (random_problem(3, 2, 2), None)])
def test_riccati_matches_reference(problem, K0):
    K0 = stabilizing_start(problem) + 0.1 if K0 is None else K0
    profile = solve_riccati(problem, K0=K0)
    for got, want in zip((profile.Kstar, profile.Pstar, profile.Ystar),
                         reference_riccati(problem, K0)):
        assert np.array_equal(got, want)


# ------------------------------------------------------- scalar oracles

def reference_stencil(z):
    """objectives._stencil: one norm per row and probe shifts from
    np.eye."""
    n = z.shape[1]
    steps = np.array([1e-5 * (1.0 + float(np.linalg.norm(zi))) for zi in z])
    shift = steps[:, None, None] * np.eye(n)
    return np.concatenate([z, (z[:, None] + shift).reshape(-1, n),
                           (z[:, None] - shift).reshape(-1, n)]), steps


def reference_evaluate(problem, z):
    """(values, gradients, Hessians) of the central-difference Hessian of
    the matrix-path gain statistics, as Objective.evaluate forms it, with
    the one-sided quotient on the inside where a probe is not
    stabilizing."""
    B = len(z)
    rows, steps = reference_stencil(z)
    ok, values, grads = reference_batched_gain_stats(problem, rows)
    center, plus, minus = (grads[i * B:(i + 1) * B].reshape(B, 1, 1)
                           for i in range(3))
    ok_p, ok_m = (ok[i * B:(i + 1) * B].reshape(B, 1, 1) for i in (1, 2))
    h = steps.reshape(B, 1, 1)
    with np.errstate(invalid="ignore"):
        H = np.where(ok_p & ok_m, (plus - minus) / (2.0 * h),
                     np.where(ok_p, (plus - center) / h,
                              (center - minus) / h))
    H = np.swapaxes(H, 1, 2)
    return values[:B], grads[:B], 0.5 * (H + np.swapaxes(H, 1, 2))


def assert_bitwise(got, want):
    got = np.asarray(got)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_float_route(monkeypatch, obj, thetas, ok, costs, grads, hessians):
    """The point oracle of each gain runs on Python floats, with no
    batched_gain_stats call, and equals its row of the references bit for
    bit; so do the one-row views of the array oracles, which make batched
    calls."""
    def batched(*args):
        raise AssertionError("the point oracle made a batched call")

    monkeypatch.setattr(lqr, "batched_gain_stats", batched)
    for i, k in enumerate(thetas.tolist()):
        inside, cost, grad, H = obj.point(k)
        assert type(inside) is bool and inside == ok[i]
        assert {type(cost), type(grad[0]), type(H[0][0])} == {float}
        for got, w in ((cost, costs[i]), (grad, grads[i]), (H, hessians[i])):
            assert_bitwise(np.array(got), w)
    monkeypatch.undo()
    for i, k in enumerate(thetas):
        row, want = thetas[i:i + 1], (costs[i:i + 1], grads[i:i + 1])
        assert_bitwise(obj.domain_test(row), ok[i:i + 1])
        assert_bitwise(obj.domain_test(k), np.asarray(ok[i]))
        assert_bitwise(obj.value(row), costs[i:i + 1])
        got = obj.value(k)
        assert type(got) is np.float64 and type(costs[i]) is np.float64
        assert_bitwise(got, np.asarray(costs[i]))
        assert_bitwise(obj.gradient(row), grads[i:i + 1])
        assert_bitwise(obj.gradient(k), grads[i])
        for got, w in zip(obj.value_and_gradient(row), want):
            assert_bitwise(got, w)
        assert_bitwise(obj.hessian(row), hessians[i:i + 1])
        assert_bitwise(obj.hessian_at(k), hessians[i])
        for got, w in zip(obj.evaluate(row, hessian=True),
                          want + (hessians[i:i + 1],)):
            assert_bitwise(got, w)


def boundary_gains(a, f):
    """Gains around a - f k = -HURWITZ_MARGIN: the boundary gain and its
    neighbours up to 3 ulps away, a spread on both sides, and k = 0."""
    k0 = (a + HURWITZ_MARGIN) / f
    near = [k0]
    for direction in (np.inf, -np.inf):
        k = k0
        for _ in range(3):
            k = np.nextafter(k, direction)
            near.append(k)
    spread = k0 + np.sign(f) * np.array([-10.0, -1.0, -1e-6, 1e-6, 1.0,
                                         10.0, 1e3])
    return np.concatenate([near, spread, [0.0]])[:, None]


# a = 0 puts a - f k = -1e-10 exactly at k = 1e-10 / f for f = 1 and -2
ORACLE_PROBLEMS = SCALAR_PROBLEMS + [(0.0, 1.0, 1.0, 1.0),
                                     (0.0, -2.0, 2.0, 0.5),
                                     (1.0, 1.0, 1.0, 1.0)]


@pytest.mark.parametrize("a, f, q, r", ORACLE_PROBLEMS)
def test_scalar_oracles_match_matrix_reference(a, f, q, r, monkeypatch):
    problem = LqrProblem(A=[[a]], F=[[f]], Q=[[q]], R=[[r]])
    profile = solve_riccati(problem, K0=stabilizing_start(problem) + 0.1)
    obj = lqr_objective(problem, profile)
    thetas = boundary_gains(a, f)
    ok, costs, grads = reference_batched_gain_stats(problem, thetas)
    assert 0 < ok.sum() < ok.size
    a_cl = a - f * thetas[:, 0]
    if a == 0.0:  # the margin itself is not stabilizing, one ulp past it is
        assert -HURWITZ_MARGIN in a_cl
        assert not ok[a_cl == -HURWITZ_MARGIN].any()
        assert ok[a_cl == np.nextafter(-HURWITZ_MARGIN, -np.inf)].all()
        assert not ok[a_cl == np.nextafter(-HURWITZ_MARGIN, np.inf)].any()

    assert_bitwise(obj.domain_test(thetas), ok)
    assert_bitwise(obj.value(thetas), costs)
    assert_bitwise(obj.gradient(thetas), grads)
    got_c, got_g = obj.value_and_gradient(thetas)
    assert_bitwise(got_c, costs)
    assert_bitwise(got_g, grads)
    want = reference_evaluate(problem, thetas)
    for got, w in zip(obj.evaluate(thetas, hessian=True), want):
        assert_bitwise(got, w)
    assert_bitwise(obj.hessian(thetas), want[2])
    # a stabilizing gain next to the boundary keeps a finite Hessian
    assert (want[2][ok] > 0).all()
    assert_float_route(monkeypatch, obj, thetas, ok, costs, grads, want[2])


def test_scalar_symmetrization_overflows_like_matrix_path(monkeypatch):
    # next to the boundary P = q / (2 |a_cl|) = 1.5e308 is finite, and the
    # 0.5 (P + P^T) of the matrix path turns it into inf; Python floats
    # overflow to the same inf
    problem = LqrProblem(A=[[0.0]], F=[[1.0]], Q=[[3e298]], R=[[1.0]])
    thetas = boundary_gains(0.0, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        ok = assert_same_bits(problem, thetas)
        costs = batched_gain_stats(problem, thetas)[1]
        want = reference_evaluate(problem, thetas)
        # the oracles read only the problem; this one's Riccati iteration
        # overflows, so the profile is the unit problem's
        obj = lqr_objective(problem, solve_riccati(scalar_problem(),
                                                   K0=np.array([[2.0]])))
        assert_bitwise(obj.hessian(thetas), want[2])
        assert_float_route(monkeypatch, obj, thetas, ok, *want)
    assert np.isinf(costs[ok]).sum() >= 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_gain_raises_in_every_scalar_oracle(bad):
    problem = scalar_problem()
    obj = lqr_objective(problem, solve_riccati(problem, K0=np.array([[2.0]])))
    thetas = np.array([[2.0], [bad], [3.0]])
    calls = [obj.domain_test, obj.value, obj.gradient, obj.value_and_gradient,
             obj.hessian, lambda z: obj.evaluate(z, hessian=True)]
    with np.errstate(invalid="ignore"):  # inf - inf in the stencil
        for call in calls:
            # the batch and its one-row views
            for z in (thetas, thetas[1:2], thetas[1]):
                with pytest.raises(np.linalg.LinAlgError):
                    call(z)
        with pytest.raises(np.linalg.LinAlgError):  # the point oracle
            obj.point((bad,))
        with pytest.raises(np.linalg.LinAlgError):
            reference_evaluate(problem, thetas)


def test_scalar_oracles_reject_two_column_gains():
    # a (B, 2) batch is not B scalar gains
    problem = scalar_problem()
    obj = lqr_objective(problem, solve_riccati(problem, K0=np.array([[2.0]])))
    thetas = np.full((3, 2), 2.0)
    for call in (obj.domain_test, obj.value, obj.gradient,
                 obj.value_and_gradient):
        with pytest.raises(ValueError):
            call(thetas)


def column_stencil(z):
    """The probe rows of a (B, 1) batch from its column: a one-element
    norm is sqrt(z z), one rounded multiply."""
    h = 1e-5 * (1.0 + np.sqrt(z * z))
    return np.concatenate([z, z + h, z - h]), h[:, 0]


def test_scalar_stencil_matches_per_row_norms():
    # the per-row norms of _stencil give a scalar batch the steps of its
    # column, bit for bit, at signed zeros, subnormals, the overflow of
    # z z, infinities and a log-uniform sweep of magnitudes
    tiny = np.finfo(float).smallest_subnormal
    huge = np.finfo(float).max
    col = np.array([0.0, -0.0, tiny, -tiny, 1e-310, -3e-320, 1e-160,
                    -1e-160, 1e160, -1e160, 1.7e308, -1.7e308, huge, -huge,
                    np.inf, -np.inf, 2.5, -7.0])
    rng = np.random.default_rng(8)
    sweep = rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(
        -320, 308, 20_000)
    for z in (col[:, None], col[:1, None], col[-3:, None], sweep[:, None]):
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _stencil(z), column_stencil(z)
        for g, w in zip(got, want):
            assert_bitwise(g, w)
