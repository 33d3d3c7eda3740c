"""Continuous-time LQR policy optimization over the stabilizing gain set.

The objective is J2(K) = trace(P_K) with P_K the closed-loop Lyapunov
solution; its gradient is 2(RK - F^T P_K) Y_K.  The module ships one
batched Kronecker Lyapunov solver, used both by the per-step gain
statistics and by the Kleinman-Newton iteration to the Riccati solution.
A gain batch builds its operator L = kron(A_cl^T, I) + kron(I, A_cl^T)
once; the Y_K system's operator is L^T, so P_K and Y_K come from one
stacked solve of [L; L^T].  A scalar problem (n = m = 1) takes the same
arithmetic elementwise, with no 1x1 matrices: L = a_cl + a_cl, the
stacked solve is the division -M / L, which LAPACK's 1x1 solve equals bit
for bit, and the Hurwitz test is a - f k < -HURWITZ_MARGIN (a 1x1 closed
loop is its own eigenvalue), with the LinAlgError that ``eigvals`` raises
on a non-finite entry.  The scalar Hessian oracle is the symmetrized
central quotient of the gradient, one-sided on the stabilizing side where
a probe leaves the set.  The ``point`` oracle of one gain runs the same
formulas on Python floats, whose + - * / and ``math.sqrt`` are numpy's
IEEE-754 operations, so it matches the matrix path bit for bit.  The
module also ships the
analytic K-PL modulus mu5(h) = h/(b1 h + b2), the sublevel smoothness
profile L3(h), and learning-rate schedules whose growth class decides NSS
versus scNSS of the policy-gradient diffusion.

Gain matrices are vectorized row-major into mn-dimensional states so the
generic diffusion simulator can drive policy-gradient flow directly; the
Frobenius inner product matches the vectorized Euclidean one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .objectives import Objective, _step
from .sde import CovarianceSchedule, _every

HURWITZ_MARGIN = 1e-10


class StabilityError(ValueError):
    """Matrix not Hurwitz (or gain outside the stabilizing set)."""


class ConditioningError(RuntimeError):
    """Lyapunov solve failed its residual contract."""


@dataclass(frozen=True)
class LqrProblem:
    """System (A, F) with quadratic state/input weights (Q, R); a scalar
    problem (n = m = 1) also keeps ``scalars`` = (a, f, q, r) as floats.

    (A, F) must be stabilizable.  A scalar problem is iff a < 0 or f != 0,
    tested in closed form.  A matrix problem is probed with scipy's
    ``solve_continuous_are``, whose solution exists iff (A, F) is
    stabilizable for positive definite Q and R; the probe can fail on
    ill-conditioned pairs that are stabilizable, such as the scalar
    a = 1e6, f = 1e-6 with q = 1 and r = 100, which the closed form
    accepts.
    """

    A: np.ndarray
    F: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    scalars: tuple[float, float, float, float] | None = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        F = np.atleast_2d(np.asarray(self.F, dtype=float))
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        n, m = F.shape
        if A.shape != (n, n) or Q.shape != (n, n) or R.shape != (m, m):
            raise ValueError("inconsistent matrix dimensions")
        if not all(np.isfinite(M).all() for M in (A, F, Q, R)):
            raise ValueError("A, F, Q and R must be finite")
        for name, M in (("Q", Q), ("R", R)):
            if not np.allclose(M, M.T, atol=1e-12):
                raise ValueError(f"{name} must be symmetric")
            if np.linalg.eigvalsh(M).min() <= 0:
                raise ValueError(f"{name} must be positive definite")
        if n == m == 1:
            if not (A[0, 0] < 0 or F[0, 0] != 0):
                raise ValueError("(A, F) not stabilizable: a >= 0 and f = 0")
        else:
            from scipy.linalg import solve_continuous_are
            try:
                solve_continuous_are(A, F, Q, R)
            except np.linalg.LinAlgError as exc:
                raise ValueError(f"(A, F) not stabilizable: {exc}") from exc
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "scalars", (
            float(A[0, 0]), float(F[0, 0]), float(Q[0, 0]), float(R[0, 0]))
            if n == m == 1 else None)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.F.shape[1]


def solve_lyapunov(A: np.ndarray, M: np.ndarray,
                   N: np.ndarray | None = None):
    """P_b with A_b^T P_b + P_b A_b + M_b = 0 for (B, n, n) stacks A, M.

    Row-major vec turns the equation into the two-term operator
    L_b = kron(A_b^T, I) + kron(I, A_b^T); the stacked dense solve is
    adequate for desk scale (n <= 30).  Given a second stack N (or one
    n x n matrix for every b), the dual solutions Y_b of
    A_b Y_b + Y_b A_b^T + N_b = 0 come from the same solve: their operator
    kron(A_b, I) + kron(I, A_b) is L_b^T entry for entry (the two terms
    trade places, and addition commutes), so [L; L^T] is solved once
    against [-M; -N] and the pair (P, Y) is returned.  The caller checks
    that every A_b is Hurwitz, which makes each solution unique and
    symmetric.
    """
    nb, n = A.shape[:2]
    if n > 30:
        raise ValueError("dense Lyapunov solve capped at n = 30")
    AT = np.swapaxes(A, 1, 2)
    eye = np.eye(n)
    # L_b[ki, lj] = A_b[l, k] delta_ij + delta_kl A_b[j, i]
    L = (np.einsum("bkl,ij->bkilj", AT, eye)
         + np.einsum("kl,bij->bkilj", eye, AT)).reshape(nb, n * n, n * n)
    rhs = M
    if N is not None:
        L = np.concatenate([L, np.swapaxes(L, 1, 2)])
        rhs = np.empty((2 * nb, n, n))
        rhs[:nb], rhs[nb:] = M, N
    try:
        X = np.linalg.solve(L, -rhs.reshape(-1, n * n, 1))
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"singular Lyapunov operator: {exc}") from exc
    X = X.reshape(-1, n, n)
    X = 0.5 * (X + np.swapaxes(X, 1, 2))
    return X if N is None else (X[:nb], X[nb:])


@dataclass(frozen=True)
class LqrPlProfile:
    """Riccati solution with the analytic PL and smoothness constants."""

    Kstar: np.ndarray
    Pstar: np.ndarray
    Ystar: np.ndarray
    J2star: float
    b1: float
    b2: float
    a1: float
    a2: float


def _checked_solves(problem: LqrProblem, K: np.ndarray):
    """P_K and Y_K of one gain, a batch of one through solve_lyapunov.

    Raises StabilityError for a gain outside the stabilizing set, and
    ConditioningError for a solve that misses the residual contract
    |A^T X + X A + M|_F <= 1e-10 (|M|_F + |X|_F), checked for P_K
    (A = A_cl, M = Q + K^T R K) and for Y_K (A = A_cl^T, M = I).
    """
    Ks = K[None]
    A_cl = _closed_loop(problem, Ks)
    if not hurwitz_mask(A_cl)[0]:
        raise StabilityError("gain not stabilizing: closed loop not Hurwitz")
    M_P, eye = _cost_weight(problem, Ks), np.eye(problem.n)
    P, Y = (X[0] for X in solve_lyapunov(A_cl, M_P, eye))
    for A, M, X in ((A_cl[0], M_P[0], P), (A_cl[0].T, eye, Y)):
        res = np.linalg.norm(A.T @ X + X @ A + M, "fro")
        if res > 1e-10 * (np.linalg.norm(M, "fro") + np.linalg.norm(X, "fro")):
            raise ConditioningError(
                f"Lyapunov residual {res:g} above contract")
    return P, Y


def solve_riccati(problem: LqrProblem,
                  K0: np.ndarray | None = None) -> LqrPlProfile:
    """Kleinman-Newton policy iteration K_{i+1} = R^-1 F^T P_{K_i}.

    Converges monotonically from any stabilizing start; K0 defaults to 0
    when A is already Hurwitz and is required otherwise.
    """
    if K0 is None:
        if not hurwitz_mask(problem.A[None])[0]:
            raise ValueError("A unstable: supply a stabilizing initial gain")
        K = np.zeros((problem.m, problem.n))
    else:
        K = np.atleast_2d(np.asarray(K0, dtype=float))
        if K.shape != (problem.m, problem.n):
            raise ValueError(f"K0 must be {problem.m}x{problem.n}")
    Rinv = np.linalg.inv(problem.R)
    P, Ystar = _checked_solves(problem, K)
    for _ in range(200):
        K_next = Rinv @ problem.F.T @ P
        delta = np.linalg.norm(K_next - K, "fro")
        K = K_next
        P, Ystar = _checked_solves(problem, K)
        if delta <= 1e-12:
            break
    else:
        raise ConditioningError("Kleinman-Newton did not converge in 200 steps")

    wy = np.linalg.eigvalsh(Ystar)
    ymin, ymax = float(wy.min()), float(wy.max())
    rmin = float(np.linalg.eigvalsh(problem.R).min())
    normF = float(np.linalg.norm(problem.F, 2))
    b1 = normF * np.sqrt(2.0 * (ymin + ymax)) / (rmin * np.sqrt(ymin))
    b2 = (np.linalg.norm(problem.A - problem.F @ K, "fro") ** 2
          * np.sqrt(ymin) * np.sqrt(ymin + ymax) / (np.sqrt(2.0) * normF))
    a1 = 2.0 * normF / rmin
    a2 = np.sqrt(2.0 * np.linalg.norm(problem.A, 2) / rmin)
    return LqrPlProfile(Kstar=K, Pstar=P, Ystar=Ystar,
                        J2star=float(np.trace(P)), b1=b1, b2=b2, a1=a1, a2=a2)


def mu5_class_function(profile: LqrPlProfile):
    from .compfun import K as K_CLASS
    from .compfun import ScalarClassFunction
    return ScalarClassFunction(
        eval=lambda h: np.asarray(h, dtype=float)
        / (profile.b1 * np.asarray(h, dtype=float) + profile.b2),
        declared_class=K_CLASS, description="h/(b1 h + b2)")


def smoothness_profile_L3(profile: LqrPlProfile, problem: LqrProblem,
                          h) -> float | np.ndarray:
    """Gradient Lipschitz constant over the sublevel set at excess cost h."""
    h = np.asarray(h, dtype=float)
    s = profile.J2star + h
    qmin = float(np.linalg.eigvalsh(problem.Q).min())
    nR = float(np.linalg.norm(problem.R, 2))
    nF = float(np.linalg.norm(problem.F, 2))
    out = (2.0 * nR / qmin * s
           + 8.0 * profile.a2 * nF * nR / qmin**2 * s**2.5
           + 8.0 * nF * (profile.a1 * nR + nF) / qmin**2 * s**3)
    return float(out) if out.ndim == 0 else out


# learning-rate schedules and the limit of h^3 / eta(h) they realize
ETA_SCHEDULE_INFO = {
    "nss": "eta(h) = (1+h)^4; h^3/eta -> 0",
    "scnss": "eta(h) = (1+h)^3; h^3/eta -> 1",
}


def eta_schedule_lqr(mode: str, h) -> float | np.ndarray:
    if mode not in ETA_SCHEDULE_INFO:
        raise ValueError(f"unknown mode {mode!r}; choose from "
                         f"{sorted(ETA_SCHEDULE_INFO)}")
    h = np.asarray(h, dtype=float)
    power = 4 if mode == "nss" else 3
    out = (1.0 + h) ** power
    return float(out) if out.ndim == 0 else out


def vec_gain(K: np.ndarray) -> np.ndarray:
    return np.asarray(K, dtype=float).reshape(-1)


def _closed_loop(problem: LqrProblem, Ks: np.ndarray) -> np.ndarray:
    """Stack of closed-loop matrices A - F K for a (B, m, n) gain stack."""
    return problem.A[None] - np.einsum("nm,bmk->bnk", problem.F, Ks)


def hurwitz_mask(A_cl: np.ndarray) -> np.ndarray:
    """Which matrices of a (B, n, n) stack have spectral abscissa below
    -HURWITZ_MARGIN; non-finite input raises LinAlgError."""
    abscissa = np.max(np.real(np.linalg.eigvals(A_cl)), axis=1)
    return abscissa < -HURWITZ_MARGIN


def _scalar_hurwitz(a_cl):
    """a_cl < -HURWITZ_MARGIN for closed-loop scalars (a float or an array);
    LinAlgError, as ``eigvals`` raises, if any is inf or NaN."""
    if not (math.isfinite(a_cl) if isinstance(a_cl, float)
            else _every(np.isfinite(a_cl))):
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    return a_cl < -HURWITZ_MARGIN


def _cost_weight(problem: LqrProblem, Ks: np.ndarray) -> np.ndarray:
    """Q + K^T R K for a (B, m, n) gain stack: the M of the P_K solve."""
    return problem.Q[None] + np.einsum("bmi,mk,bkj->bij", Ks, problem.R, Ks)


def _scalar_stats(problem: LqrProblem, k, a_cl):
    """Costs and gradients of stabilizing scalar gains: the operations of
    the matrix path below on 1x1 blocks, in its order.  The operator is
    L = a_cl + a_cl, P and Y solve L X = -(q + (k r) k) and L X = -1, and
    each keeps the 0.5 (X + X^T) symmetrization.  Operators only, so k and
    a_cl are (B,) columns or floats alike."""
    _, f, q, r = problem.scalars
    L = a_cl + a_cl
    kr = k * r  # also r k: a product rounds the same in either order
    P = -(q + kr * k) / L
    P = 0.5 * (P + P)
    Y = -1.0 / L
    Y = 0.5 * (Y + Y)
    return P, 2.0 * ((kr - f * P) * Y)


def _scalar_point(problem: LqrProblem, k: float):
    """(stabilizing, cost, gradient) of one scalar gain on Python floats:
    its row of batched_gain_stats, bit for bit."""
    a, f = problem.scalars[:2]
    a_cl = a - f * k
    if _scalar_hurwitz(a_cl):
        return (True, *_scalar_stats(problem, k, a_cl))
    return False, math.nan, math.nan


def _scalar_hessian(problem: LqrProblem, k: float) -> float:
    """0.5 (H + H^T) of H = (g(k+h) - g(k-h)) / (2h) at one scalar gain on
    Python floats, h the step of ``objectives._step``; one-sided on the
    stabilizing side if a probe is not, so a stabilizing gain within h of
    the boundary keeps a finite Hessian."""
    h = _step(math.sqrt(k * k))
    ok_p, _, g_p = _scalar_point(problem, k + h)
    ok_m, _, g_m = _scalar_point(problem, k - h)
    if ok_p and ok_m:
        H = (g_p - g_m) / (2.0 * h)
    else:
        g = _scalar_point(problem, k)[2]
        H = (g_p - g) / h if ok_p else (g - g_m) / h
    return 0.5 * (H + H)


def _scalar_point_oracle(problem: LqrProblem, z):
    """``Objective.point`` of a scalar problem at the gain z[0]."""
    ok, cost, grad = _scalar_point(problem, z[0])
    return ok, cost, (grad,), ((_scalar_hessian(problem, z[0]),),)


def _scalar_hessians(problem: LqrProblem, z: np.ndarray) -> np.ndarray:
    """(B, 1, 1) :func:`_scalar_hessian` of each row of a (B, 1) batch."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    return np.array([_scalar_hessian(problem, k)
                     for k in z[:, 0].tolist()]).reshape(-1, 1, 1)


def _matrix_stats(problem: LqrProblem, Ks: np.ndarray, A_cl: np.ndarray):
    """Costs and (B, m, n) gradients of a stabilizing (B, m, n) gain stack
    from one stacked solve_lyapunov call."""
    P, Y = solve_lyapunov(A_cl, _cost_weight(problem, Ks), np.eye(problem.n))
    G = 2.0 * np.einsum("bmi,bij->bmj",
                        np.einsum("mk,bki->bmi", problem.R, Ks)
                        - np.einsum("nm,bni->bmi", problem.F, P),
                        Y)
    return np.trace(P, axis1=1, axis2=2), G


def batched_gain_stats(problem: LqrProblem, thetas: np.ndarray):
    """Cost and gradient over a batch of vectorized gains.

    Returns (hurwitz mask, costs, vectorized gradients); entries for
    non-stabilizing gains are NaN.  A scalar problem reads its gains as
    one (B,) column and tests each closed loop a - f k directly; its
    stabilizing rows go through elementwise arithmetic.  Those of any
    other problem go through one stacked solve_lyapunov call.  Every row
    goes through the same per-row kernels whatever the batch holds.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim < 2:
        thetas = thetas.reshape(1, -1)
    if problem.scalars is None:
        Ks = thetas.reshape(len(thetas), problem.m, problem.n)
        A_cl = _closed_loop(problem, Ks)
        ok = hurwitz_mask(A_cl)
        stats = _matrix_stats
    else:
        a, f = problem.scalars[:2]
        Ks = thetas.reshape(len(thetas))
        A_cl = a - f * Ks
        ok = _scalar_hurwitz(A_cl)
        stats = _scalar_stats
    if _every(ok):
        costs, G = stats(problem, Ks, A_cl)
        return ok, costs, G.reshape(len(ok), -1)
    costs = np.full(ok.size, np.nan)
    grads = np.full((ok.size, problem.m * problem.n), np.nan)
    if ok.any():
        costs[ok], G = stats(problem, Ks[ok], A_cl[ok])
        grads[ok] = G.reshape(len(G), -1)
    return ok, costs, grads


def lqr_objective(problem: LqrProblem, profile: LqrPlProfile) -> Objective:
    """J2 as an objective over vectorized gains, with Hurwitz domain test
    and the analytic mu5 K-PL envelope."""
    m, n = problem.m, problem.n

    def value_and_gradient(thetas):
        return batched_gain_stats(problem, thetas)[1:]

    def value(theta):
        theta = np.asarray(theta, dtype=float)
        costs = value_and_gradient(theta.reshape(-1, m * n))[0]
        return costs[0] if theta.ndim == 1 else costs.reshape(theta.shape[:-1])

    def gradient(theta):
        theta = np.asarray(theta, dtype=float)
        grads = value_and_gradient(theta.reshape(-1, m * n))[1]
        return grads.reshape(theta.shape[:-1] + (m * n,))

    def domain_test(theta):
        theta = np.asarray(theta, dtype=float)
        lead = theta.shape[:-1]
        if problem.scalars is None:
            A_cl = _closed_loop(problem, theta.reshape(-1, m, n))
            return hurwitz_mask(A_cl).reshape(lead)
        a, f = problem.scalars[:2]
        return np.asarray(_scalar_hurwitz(a - f * theta.reshape(lead))
                          ).reshape(lead)

    scalar = problem.scalars is not None
    obj = Objective(value=value, gradient=gradient, dim=m * n,
                    optimum_value=profile.J2star,
                    minimizer=vec_gain(profile.Kstar),
                    hessian=partial(_scalar_hessians, problem) if scalar
                    else None,
                    domain_test=domain_test, global_lipschitz=None,
                    envelope=mu5_class_function(profile), label="lqr",
                    value_and_gradient=value_and_gradient)
    return (obj._with_point(partial(_scalar_point_oracle, problem))
            if scalar else obj)


def gain_noise_schedule(sigma1, n: int, horizon: float) -> CovarianceSchedule:
    """Constant covariance schedule for matrix Brownian noise Sigma1 dW on
    gains.

    Row-major vectorization turns the matrix product Sigma1 W into
    kron(Sigma1, I_n) acting on the mn-dimensional state.
    """
    mat = np.kron(np.atleast_2d(np.asarray(sigma1, dtype=float)), np.eye(n))
    return CovarianceSchedule.constant(mat, horizon)
