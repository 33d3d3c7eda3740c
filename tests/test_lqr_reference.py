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

from nsslab.lqr import (ConditioningError, LqrProblem, StabilityError,
                        _closed_loop, batched_gain_stats, hurwitz_mask,
                        solve_riccati)


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
