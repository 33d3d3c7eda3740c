"""Objective oracles and Polyak-Lojasiewicz machinery.

Ships the abstract objective contract, the quadratic benchmark with its
classic PL modulus, and logistic regression with a numerically stable
loss, a nonseparability decision (a scipy-free certificate first, linear
programming when it fails), smoothness constants, and an empirical
direction-uniform K-PL envelope.

Conventions: every oracle is batch-first.  Values map a (B, n) batch to
(B,) (and are vectorized over any leading axes), gradients to (B, n) and
Hessians to (B, n, n).  :meth:`Objective.evaluate` returns all three in
one pass and fills in a missing Hessian by central differences of the
gradients; :class:`lyapcert.SizeFunction` keeps the same contract.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .compfun import K, KINF, ScalarClassFunction, from_table
from .sde import _diagonal, _times_transpose


def _step(norm):
    """The step h = 1e-5 (1 + |z|) from |z|, a float or an array."""
    return 1e-5 * (1.0 + norm)


def _stencil(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probe rows [z; z + h e_i; z - h e_i] of a (B, n) batch, and the
    per-row steps h of :func:`_step`."""
    n = z.shape[1]
    # one norm per row: an axis=1 norm can round differently
    steps = np.array([_step(float(np.linalg.norm(zi))) for zi in z])
    shift = steps[:, None, None] * np.eye(n)  # (B, i, n)
    return np.concatenate([z, (z[:, None] + shift).reshape(-1, n),
                           (z[:, None] - shift).reshape(-1, n)]), steps


def _central(f: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Central differences of f on the rows of :func:`_stencil`, as
    (B, i, ...) with axis 1 the direction e_i."""
    B = steps.size
    n = (len(f) - B) // (2 * B)
    plus = f[B:B + B * n].reshape(B, n, *f.shape[1:])
    minus = f[B + B * n:].reshape(B, n, *f.shape[1:])
    return (plus - minus) / (2.0 * steps).reshape(B, *[1] * f.ndim)


@dataclass(frozen=True)
class Objective:
    """Value/gradient/Hessian oracle with known or estimated optimum.

    ``value``, ``gradient`` and ``hessian`` map a (B, n) batch to (B,),
    (B, n) and (B, n, n); ``value`` is also vectorized over other leading
    axes.  A ``hessian`` oracle may be exact or form a stencil itself, as
    the scalar LQR one does.  ``value_and_gradient`` optionally computes
    both in one joint call.  ``global_lipschitz`` is the gradient
    Lipschitz constant when known, and ``envelope`` the PL modulus mu of
    |grad J(z)| >= mu(J(z) - J*).  :meth:`evaluate` returns all three for
    a batch.  The ``*_at`` methods are one-point views; ``point``, set by
    builders, maps n floats to (inside, value, gradient, Hessian rows) on
    floats, each its row of :meth:`evaluate` and ``domain_test`` exactly.
    It is no init field, so ``dataclasses.replace`` drops it: a point
    oracle never outlives the oracles it mirrors.
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    dim: int
    optimum_value: float
    minimizer: np.ndarray | None = None
    hessian: Callable[[np.ndarray], np.ndarray] | None = None
    domain_test: Callable[[np.ndarray], np.ndarray] | None = None
    global_lipschitz: float | None = None
    envelope: ScalarClassFunction | None = None
    label: str = ""
    value_and_gradient: Callable[[np.ndarray],
                                 tuple[np.ndarray, np.ndarray]] | None = None
    point: Callable[[tuple], tuple] | None = field(default=None, init=False)

    def evaluate(self, z, hessian: bool = False):
        """(values (B,), gradients (B, n), Hessians (B, n, n) or None) of a
        (B, dim) batch.

        Without a Hessian oracle the Hessians are the symmetrized central
        differences of the gradients, with the per-row step of
        :func:`_stencil`; the probe rows of the whole batch go through one
        gradient call (one joint call when ``value_and_gradient`` is
        given).  When the oracles compute each row independently of the
        rest of the batch, as the LQR ones do, the results equal the
        per-point formulas bit for bit.
        """
        z = np.asarray(z, dtype=float)
        if z.ndim < 2:
            z = z.reshape(1, -1)
        B = len(z)
        fd = hessian and self.hessian is None
        rows, steps = _stencil(z) if fd else (z, None)
        if self.value_and_gradient is not None:
            values, grads = self.value_and_gradient(rows)
            values = np.asarray(values, dtype=float)[:B]
        else:
            values = np.asarray(self.value(z), dtype=float)
            grads = self.gradient(rows)
        grads = np.asarray(grads, dtype=float)
        if not hessian:
            return values, grads, None
        if not fd:
            return values, grads, np.asarray(self.hessian(z), dtype=float)
        # H[b][:, i] is the difference quotient along e_i
        H = _central(grads, steps).swapaxes(1, 2)
        return values, grads[:B], 0.5 * (H + H.swapaxes(1, 2))

    def _with_point(self, point) -> "Objective":
        """This objective, given the point oracle ``point``."""
        object.__setattr__(self, "point", point)
        return self

    def value_at(self, z) -> float:
        return float(np.asarray(self.value(np.asarray(z, dtype=float))))

    def gradient_at(self, z) -> np.ndarray:
        return np.asarray(self.gradient(np.asarray(z, dtype=float)[None]))[0]

    def hessian_at(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)[None]
        if self.hessian is not None:
            return np.asarray(self.hessian(z), dtype=float)[0]
        return self.evaluate(z, hessian=True)[2][0]


def quadratic_objective(A: np.ndarray, b: np.ndarray) -> Objective:
    """J(z) = 1/2 (z - z*)^T A (z - z*) with z* = A^-1 b.

    Carries the classic PL envelope mu(h) = sqrt(2 lambda_min(A) h) and
    gradient Lipschitz constant lambda_max(A), and for a diagonal A a point
    oracle (bit for bit at finite points).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not np.allclose(A, A.T, atol=1e-12):
        raise ValueError("A must be square symmetric")
    w = np.linalg.eigvalsh(A)
    if w.min() <= 0:
        raise ValueError(f"A must be positive definite, lambda_min={w.min():g}")
    zstar = np.linalg.solve(A, b)
    c_pl = 2.0 * w.min()

    def value(z):
        d = np.asarray(z, dtype=float) - zstar
        return 0.5 * np.einsum("...i,ij,...j->...", d, A, d)

    diag = _diagonal(A)

    def gradient(z):
        return _times_transpose(np.asarray(z, dtype=float) - zstar, A, diag)

    point = None
    if diag is not None:  # einsum's sum in order, _times_transpose's + 0.0
        a, zs = diag.tolist(), zstar.tolist()
        rows = tuple(map(tuple, A.tolist()))
        def point(z):
            d, value = [zi - si for zi, si in zip(z, zs)], 0.0
            for di, ai in zip(d, a):
                value += di * ai * di
            return (True, 0.5 * value,
                    tuple([di * ai + 0.0 for di, ai in zip(d, a)]), rows)

    mu = ScalarClassFunction(lambda h: np.sqrt(c_pl * np.asarray(h, dtype=float)),
                             KINF, description=f"sqrt({c_pl:g} h)")
    return Objective(value=value, gradient=gradient, dim=A.shape[0],
                     optimum_value=0.0, minimizer=zstar,
                     hessian=lambda z: np.repeat(A[None], len(z), axis=0),
                     global_lipschitz=float(w.max()), envelope=mu,
                     label="quadratic")._with_point(point)


@dataclass(frozen=True)
class LogisticModel:
    """Binary logistic regression data: columns of X are feature vectors."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y)
        if X.ndim != 2:
            raise ValueError("X must be n x N")
        if not np.all(np.isfinite(X)):
            raise ValueError("features must be finite")
        if y.ndim != 1 or y.size != X.shape[1] or y.size < 1:
            raise ValueError("y must hold one label per column of X")
        if not np.all(np.isin(y, (0, 1))):
            raise ValueError("labels must be 0/1")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", np.asarray(y, dtype=float))

    @property
    def n_features(self) -> int:
        return self.X.shape[0]

    @property
    def n_samples(self) -> int:
        return self.X.shape[1]


def logistic_loss(model: LogisticModel, theta) -> float | np.ndarray:
    """Mean binary cross-entropy via softplus of signed logits.

    Stable for any logit magnitude; vectorized over leading axes of theta.
    """
    theta = np.asarray(theta, dtype=float)
    logits = theta @ model.X  # (..., N)
    signed = (2.0 * model.y - 1.0) * logits
    out = np.mean(np.logaddexp(0.0, -signed), axis=-1)
    return float(out) if theta.ndim == 1 else out


def logistic_gradient(model: LogisticModel, theta) -> np.ndarray:
    from scipy.special import expit

    theta = np.asarray(theta, dtype=float)
    p = expit(theta @ model.X)
    return (p - model.y) @ model.X.T / model.n_samples


def logistic_hessian(model: LogisticModel, theta) -> np.ndarray:
    """Hessians (..., n, n) at theta (..., n).

    Stacked matmuls keep every row's logits and product independent of
    the batch, so a batch equals its rows bit for bit.
    """
    from scipy.special import expit

    theta = np.asarray(theta, dtype=float)
    p = expit(np.matmul(theta[..., None, :], model.X)[..., 0, :])
    lam = p * (1.0 - p)
    return np.matmul(model.X * lam[..., None, :], model.X.T) / model.n_samples


def logistic_lipschitz_constant(model: LogisticModel) -> float:
    """Global gradient Lipschitz constant |X X^T| / (4N)."""
    gram = model.X @ model.X.T
    return float(np.linalg.eigvalsh(gram).max()) / (4.0 * model.n_samples)


def fit_theta_star(model: LogisticModel) -> np.ndarray:
    """Minimizer by explicit-Euler gradient flow with step 1/L, run until
    |grad| <= 1e-10 or until a step leaves theta unchanged (at most
    2,000,000 steps); a non-finite gradient raises RuntimeError.

    Nonseparability makes the loss coercive and strict convexity (full row
    rank) makes the minimizer unique; descent from zero converges.
    """
    L = logistic_lipschitz_constant(model)
    if L == 0.0:
        return np.zeros(model.n_features)
    step = 1.0 / L
    theta = np.zeros(model.n_features)
    for _ in range(2_000_000):
        g = logistic_gradient(model, theta)
        if np.linalg.norm(g) <= 1e-10:
            return theta
        if not np.isfinite(g).all():
            raise RuntimeError("gradient flow met a non-finite gradient")
        moved = theta - step * g
        if np.array_equal(moved, theta):
            return theta
        theta = moved
    raise RuntimeError("gradient flow did not reach |grad| <= 1e-10; "
                       f"last norm {np.linalg.norm(g):g} (separable data?)")


def logistic_objective(model: LogisticModel) -> Objective:
    """Objective wrapper around the minimizer of :func:`fit_theta_star`."""
    theta_star = fit_theta_star(model)
    jstar = logistic_loss(model, theta_star)
    return Objective(value=lambda th: logistic_loss(model, th),
                     gradient=lambda th: logistic_gradient(model, th),
                     dim=model.n_features, optimum_value=float(jstar),
                     minimizer=theta_star,
                     hessian=lambda th: logistic_hessian(model, th),
                     global_lipschitz=logistic_lipschitz_constant(model),
                     label="logistic")


@dataclass(frozen=True)
class SeparabilityReport:
    separable: bool
    margin: float


def check_nonseparable(model: LogisticModel) -> SeparabilityReport:
    """Decide whether some nonzero direction sign-separates the labels.

    Separable means a nonzero theta with theta.x_i >= 0 for y_i = 1 and
    theta.x_i <= 0 for y_i = 0, i.e. M theta >= 0 for the (N, n) matrix M
    of rows s_i x_i^T with s_i = 2 y_i - 1.  A scipy-free certificate
    (:func:`_certify_nonseparable`) settles most nonseparable M of full
    column rank, with margin -0.0: theta = 0 attains the margin 0, the
    certificate rules out a larger one, and -0.0 is what the LP returns
    there.  Any other M goes to the linear programs of
    :func:`_separability_by_lp`, which import ``scipy.optimize``.
    Both read M times a power of two, to a largest entry in [1/2, 1), so
    the LP's tolerances are relative and its margin is scaled back; a
    scaling that is not exact raises ValueError.
    """
    M = ((2.0 * model.y - 1.0) * model.X).T  # (N, n), rows sign_i * x_i^T
    exponent = np.frexp(np.abs(M).max())[1]
    scaled = np.ldexp(M, -exponent)
    if not np.array_equal(np.ldexp(scaled, exponent), M):
        raise ValueError("the features span too many orders of magnitude "
                         "to scale by a power of two exactly")
    if _certify_nonseparable(scaled):
        return SeparabilityReport(False, -0.0)
    lp = _separability_by_lp(scaled)
    return SeparabilityReport(lp.separable,
                              float(np.ldexp(lp.margin, exponent)))


# descent steps of the certificate; a separable M never certifies, so
# this bounds the work done before the LP
_CERTIFICATE_STEPS = 1000


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)).  It only weighs the certificate's rows, so it
    need not give scipy.special.expit's bits."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _certify_nonseparable(M: np.ndarray) -> bool:
    """True when a Gordan-Stiemke certificate shows that no theta != 0 has
    M theta >= 0; False decides nothing.

    If lambda > 0 has lambda_min sigma_min(M) > |M^T lambda|, such a theta
    would give lambda^T M theta >= lambda_min sigma_min(M) |theta| >
    |M^T lambda| |theta| >= lambda^T M theta.  The weights are
    lambda_i = sigmoid(-(M theta)_i) along gradient descent on the
    logistic loss J from theta = 0 with step 1/L, for which
    M^T lambda = -N grad J(theta), so the test tightens as the descent
    converges; it stops after ``_CERTIFICATE_STEPS`` steps.

    M comes scaled as :func:`check_nonseparable` scales it.  Rounding: a
    computed singular value lies within p(N, n) eps |M|_2 of the exact one
    (LAPACK Users' Guide, sec. 4.9), taken here as
    tol = 10 max(N, n) eps sigma_max; M is refused unless its computed
    sigma_min exceeds 2 tol, and sigma_min - tol stands for sigma_min.
    The computed M^T lambda lies within gamma_N |M|^T lambda of the exact
    one, gamma_N = N u / (1 - N u) with u = eps / 2 (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2002, sec. 3.5); norms are
    taken by ``math.hypot``, which does not underflow, and the test
    doubles the bounded norm to absorb its own rounding.
    """
    N, n = M.shape
    if N < n:
        return False
    sv = np.linalg.svd(M, compute_uv=False)
    eps = np.finfo(float).eps
    tol = 10.0 * max(N, n) * eps * sv[0]
    if not sv[-1] > 2.0 * tol:
        return False
    sigma_min = sv[-1] - tol
    u = N * eps / 2.0
    gamma = u / (1.0 - u)
    abs_M = np.abs(M)
    step = 4.0 / sv[0] ** 2  # N / L with L = sigma_max^2 / (4N)
    theta = np.zeros(n)
    for _ in range(_CERTIFICATE_STEPS):
        lam = _sigmoid(-(M @ theta))
        g = M.T @ lam
        bound = math.hypot(*g) + gamma * math.hypot(*(abs_M.T @ lam))
        if lam.min() * sigma_min > 2.0 * bound:
            return True
        theta = theta + step * g
    return False


def _separability_by_lp(M: np.ndarray) -> SeparabilityReport:
    """Decide separability of M by maximizing the minimum signed margin t
    over the box |theta|_inf <= 1 (strictly separable iff t > 0, with
    margins up to 1e-9 read as 0), then probing the boundary cone for
    nonzero weakly separating directions when t = 0."""
    from scipy.optimize import linprog

    N, n = M.shape

    # variables (theta, t): maximize t s.t. M theta >= t
    res = linprog(c=np.r_[np.zeros(n), -1.0],
                  A_ub=np.c_[-M, np.ones(N)], b_ub=np.zeros(N),
                  bounds=[(-1, 1)] * n + [(None, None)], method="highs")
    if not res.success:
        raise RuntimeError(f"margin LP failed: {res.message}")
    margin = -res.fun
    if margin > 1e-9:
        return SeparabilityReport(True, margin)

    # boundary: look for nonzero theta in the cone {M theta >= 0}
    for j in range(n):
        for sign in (1.0, -1.0):
            c = np.zeros(n)
            c[j] = -sign
            cone = linprog(c=c, A_ub=-M, b_ub=np.zeros(N),
                           bounds=[(-1, 1)] * n, method="highs")
            if cone.success and -cone.fun > 1e-9:
                return SeparabilityReport(True, 0.0)
    return SeparabilityReport(False, margin)


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x, starting at 0.0: the
    arithmetic of ``scipy.integrate.cumulative_trapezoid(y, x,
    initial=0)``, bit for bit, without importing scipy."""
    return np.concatenate(([0.0],
                           np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


# radii of the slope profiles: a geometric grid from 0 resolving both the
# linear regime and the saturation tail
_R_GRID = np.r_[0.0, np.geomspace(1e-4, 1e2, 200)]


def estimate_kpl_envelope(obj: Objective, theta_star, n_dirs: int,
                          seed: int = 0) -> ScalarClassFunction:
    """Direction-uniform K-PL envelope from radial slope profiles.

    For each sampled unit direction: tabulate the radial slope zeta(r) of
    the objective from theta_star on ``_R_GRID``, integrate to the
    suboptimality profile psi(r), and read the slope as a function of
    suboptimality on 400 geometric points.  The pointwise minimum over
    directions, made nondecreasing by running maximum, is returned as a
    piecewise-linear class-K envelope.

    The minimum over finitely many directions over-estimates the true
    sphere minimum; the table is deflated by the factor 0.99 to absorb
    that discretization optimism, and verify_pl on held-out points is the
    mandatory companion check.
    """
    theta_star = np.asarray(theta_star, dtype=float).reshape(-1)
    gnorm = float(np.linalg.norm(obj.gradient_at(theta_star)))
    if gnorm > 1e-6:
        raise ValueError(f"theta_star not stationary: |grad| = {gnorm:g}")
    if n_dirs < 1:
        raise ValueError("n_dirs must be >= 1")

    rng = np.random.Generator(np.random.Philox(key=seed))
    dirs = rng.standard_normal((n_dirs, theta_star.size))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    profiles = []  # (psi table, zeta table) per direction
    h_max = np.inf
    for d in dirs:
        pts = theta_star[None] + _R_GRID[:, None] * d[None]
        zeta = np.asarray(obj.gradient(pts)) @ d
        zeta[0] = 0.0
        psi = _cumulative_trapezoid(zeta, _R_GRID)
        profiles.append((psi, zeta))
        h_max = min(h_max, psi[-1])

    h_grid = np.r_[0.0, np.geomspace(max(h_max * 1e-8, 1e-300), h_max, 400)]
    mu_vals = np.min([np.interp(h_grid, psi, zeta) for psi, zeta in profiles],
                     axis=0)
    mu_vals = 0.99 * np.maximum.accumulate(np.maximum(mu_vals, 0.0))
    mu_vals[0] = 0.0
    return from_table(h_grid, mu_vals, declared_class=K,
                      description=f"empirical envelope ({n_dirs} directions)")


@dataclass(frozen=True)
class PLViolationReport:
    violations: list  # (point, grad_norm, mu_value)
    checked: int

    @property
    def clean(self) -> bool:
        return not self.violations


def verify_pl(obj: Objective, envelope: ScalarClassFunction,
              points) -> PLViolationReport:
    """List points where the gradient norm undercuts the PL modulus
    ``envelope`` by more than 1e-9."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    grads = np.asarray(obj.gradient(points))
    gnorms = np.linalg.norm(grads, axis=1)
    hs = np.asarray(obj.value(points), dtype=float) - obj.optimum_value
    violations = []
    for z, gn, h in zip(points, gnorms, hs):
        mu_h = float(envelope(max(h, 0.0)))
        if gn < mu_h - 1e-9:
            violations.append((z.copy(), float(gn), mu_h))
    return PLViolationReport(violations=violations, checked=len(points))


def load_logistic_csv(path: str) -> LogisticModel:
    """Dataset CSV: feature columns then one 0/1 label column, with header.

    A file that holds no such table, or features whose gradient Lipschitz
    constant |X X^T| / (4N) is not finite, raises a one-line ValueError.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) is None:
            raise ValueError("empty file")
        rows = [[float(v) for v in row] for row in reader if row]
    data = np.array(rows)
    if data.ndim != 2 or data.shape[1] < 2:
        raise ValueError("need at least one feature and a label column")
    model = LogisticModel(X=data[:, :-1].T, y=data[:, -1])
    with np.errstate(over="ignore", invalid="ignore"):
        if not math.isfinite(logistic_lipschitz_constant(model)):
            raise ValueError("the features overflow |X X^T| / (4N), the "
                             "gradient's Lipschitz constant")
    return model
