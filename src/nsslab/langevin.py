"""Langevin diffusion constructions over objective oracles.

Builds the overdamped dynamics dz = -eta(J - J*) grad J dt + Sigma dB
and the underdamped dynamics dz = v dt, dv = -eta grad J dt - c v dt
+ Sigma dB (noise on the velocity block only), in two flavors each:
constant coefficients (needs a global gradient Lipschitz constant) and
state-scheduled coefficients built from a sampled smoothness ladder.
Each model carries its noise map as data: the identity, or the [0; I]
block that puts the noise on the velocity.

Also houses the Lyapunov candidates V2 (mixed quadratic) and V3
(smoothed-potential form), both f(J - J*) + a <v, grad J> + c |v|^2 / 2,
whose noise Hessian (the velocity block of hess V) is c I, the phi
ladder that upper-bounds the squared gradient by a function of
suboptimality, and the dissipation-certificate triples of both.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .compfun import K, K_ON_0_D, KINF, ScalarClassFunction
from .lyapcert import DissipationCertificate, SizeFunction
from .objectives import Objective, _cumulative_trapezoid
from .sde import DiffusionModel


@dataclass(frozen=True)
class OverdampedConfig:
    """Overdamped dynamics configuration.

    The noise map is the identity, so the certificates' K_G = |G|_F is
    sqrt(n).  ``eta=None`` means the constant learning rate 1, otherwise a
    callable of suboptimality, vectorized over a batch.
    """

    objective: Objective
    eta: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def k_g(self) -> float:
        return float(np.sqrt(self.objective.dim))


def build_overdamped(config: OverdampedConfig) -> DiffusionModel:
    obj = config.objective
    eta = config.eta

    def drift(z):
        g = np.asarray(obj.gradient(z))
        if eta is None:
            return -g
        h = np.asarray(obj.value(z), dtype=float) - obj.optimum_value
        return -np.asarray(eta(h), dtype=float)[..., None] * g

    return DiffusionModel(state_dim=obj.dim, noise_dim=obj.dim, drift=drift,
                          domain_test=obj.domain_test,
                          equilibrium=obj.minimizer)


@dataclass(frozen=True)
class UnderdampedConfig:
    """Underdamped dynamics configuration on the (z, v) product space.

    Without a PhiLadder ``phi`` the coefficients are the constants eta
    and c, and the Lyapunov weights are
    lambda1 = 0.9 * min{1/(2 eta + c), 1/(2L), c/(2(eta L + c^2))} and
    lambda2 = (1 - lambda1 c)/eta, which need the global Lipschitz
    constant L.  With ``phi`` they are scheduled: c(z) = |hess J(z)|/2 +
    1/2 and eta(z) = (phi2'(J(z) - J*) - c(z))/2, >= 1 only where J - J*
    <= h_max and the ladder bounds |hess J|: past h_max, phi2' is clamped
    while c grows (unit LQR, h_max = 20, k = 1 + 5e-6: eta = -4.8e14).
    The noise map is the [0; I] block on the velocity, so K_G = sqrt(n).
    """

    objective: Objective
    eta: float = 1.0
    c: float = 1.0
    phi: "PhiLadder | None" = None

    def __post_init__(self):
        if self.phi is None:
            if self.objective.global_lipschitz is None:
                raise ValueError("constant coefficients need a global "
                                 "gradient Lipschitz constant; pass a "
                                 "PhiLadder to schedule them")
            if self.eta <= 0 or self.c <= 0:
                raise ValueError("eta and c must be positive")

    @property
    def k_g(self) -> float:
        return float(np.sqrt(self.objective.dim))

    @property
    def lambdas(self) -> tuple[float, float, float]:
        """(lambda1, lambda2, lambda3) of the V2 construction."""
        if self.phi is not None:
            raise ValueError("lambda weights exist only for constant "
                             "coefficients")
        L = self.objective.global_lipschitz
        eta, c = self.eta, self.c
        cap = min(1.0 / (2.0 * eta + c), 1.0 / (2.0 * L),
                  c / (2.0 * (eta * L + c * c)))
        lam1 = 0.9 * cap  # strict-inequality headroom
        lam2 = (1.0 - lam1 * c) / eta
        lam3 = max(1.0 + lam1 * L, 0.5 * (lam1 + lam2))
        return lam1, lam2, lam3


def _scheduled_terms(config: UnderdampedConfig, z: np.ndarray):
    """(c(z), eta(z), grad J(z)) from one batched oracle evaluation; eta
    can be negative past the ladder (:class:`UnderdampedConfig`)."""
    obj = config.objective
    values, grads, hessians = obj.evaluate(z, hessian=True)
    # the spectral norm of each Hessian: what norm(H, 2, axis=(1, 2))
    # computes, without its axis handling; a 1x1 Hessian's is |h|
    if hessians.shape[1] == 1:
        norms = np.abs(hessians[:, 0, 0])
    else:
        norms = np.linalg.svd(hessians, compute_uv=False).max(axis=1)
    c = 0.5 * norms + 0.5
    eta = 0.5 * (config.phi.phi2_prime(values - obj.optimum_value) - c)
    return c, eta, grads


def build_underdamped(config: UnderdampedConfig) -> DiffusionModel:
    obj = config.objective
    n = obj.dim

    if config.phi is None:
        eta_c, c_c = config.eta, config.c

        def drift(x):
            z, v = x[..., :n], x[..., n:]
            dv = -eta_c * np.asarray(obj.gradient(z)) - c_c * v
            return np.concatenate([v, dv], axis=-1)

        def point_drift(x):
            inside, _, g, _ = obj.point(x[:n])
            return x[n:] + tuple([-eta_c * gi - c_c * vi for gi, vi
                                  in zip(g, x[n:])]) if inside else None
    else:
        def drift(x):
            z, v = x[..., :n], x[..., n:]
            c, eta, g = _scheduled_terms(config, z)
            dv = -eta[:, None] * g - c[:, None] * v
            return np.concatenate([v, dv], axis=-1)

        def point_drift(x):  # n = 1: |H| is the spectral norm
            inside, value, g, H = obj.point(x[:1])
            c = 0.5 * abs(H[0][0]) + 0.5
            eta = 0.5 * (config.phi.phi2_prime(value - obj.optimum_value) - c)
            return (x[1], -eta * g[0] - c * x[1]) if inside else None

    domain = None
    if obj.domain_test is not None:
        domain = lambda x: np.asarray(obj.domain_test(x[..., :n]), dtype=bool)

    eq = None
    if obj.minimizer is not None:
        eq = np.concatenate([obj.minimizer, np.zeros(n)])
    pointwise = obj.point is not None and (config.phi is None or n == 1)
    return DiffusionModel(state_dim=2 * n, noise_dim=n, drift=drift,
                          noise_map=np.vstack([np.zeros((n, n)), np.eye(n)]),
                          domain_test=domain, equilibrium=eq,
                          point_drift=point_drift if pointwise else None)


@dataclass(frozen=True)
class SmoothnessLadder:
    """Sublevel-set smoothness tables.

    Lbar2(h) bounds the Hessian norm over the suboptimality-h sublevel
    set, tabulated by radial sampling (an under-estimate, so downstream
    inequalities are re-verified by certificate falsification).  With a
    noise map of Frobenius norm K_G, the generator's second-order term is
    at most Lbar2(h) * K_G^2 / 2.
    """

    h_table: np.ndarray
    lbar2_table: np.ndarray

    def Lbar2(self, h) -> np.ndarray:
        return np.interp(np.asarray(h, dtype=float), self.h_table,
                         self.lbar2_table)

    @property
    def h_max(self) -> float:
        return float(self.h_table[-1])


def build_smoothness_ladder(objective: Objective, h_max: float,
                            seed: int = 0) -> SmoothnessLadder:
    """Tabulate the sublevel Hessian-norm bound by radial sampling.

    Along each of 40 random unit directions from the minimizer, 25 states
    are placed up to the radius where suboptimality reaches h_max (grown
    by doubling, capped), and their (suboptimality, Hessian norm) pairs
    feed a running maximum over a 200-point h grid.
    """
    if objective.minimizer is None:
        raise ValueError("ladder tabulation needs the objective minimizer")
    zstar = np.asarray(objective.minimizer, dtype=float)
    rng = np.random.Generator(np.random.Philox(key=seed))
    subopts, hnorms = [0.0], [np.linalg.norm(objective.hessian_at(zstar), 2)]
    for _ in range(40):
        d = rng.standard_normal(zstar.size)
        d /= np.linalg.norm(d)
        r_hi = 1.0
        for _ in range(200):
            if objective.value_at(zstar + r_hi * d) - objective.optimum_value >= h_max:
                break
            r_hi *= 2.0
            if r_hi > 1e12:
                break
        for frac in np.linspace(1.0 / 25, 1.0, 25):
            z = zstar + frac * r_hi * d
            h = objective.value_at(z) - objective.optimum_value
            if h > h_max:
                continue
            subopts.append(h)
            hnorms.append(np.linalg.norm(objective.hessian_at(z), 2))
    order = np.argsort(subopts)
    subopts = np.asarray(subopts)[order]
    hnorms = np.maximum.accumulate(np.asarray(hnorms)[order])
    h_table = np.linspace(0.0, h_max, 200)
    lbar2 = np.interp(h_table, subopts, hnorms)
    lbar2 = np.maximum.accumulate(lbar2)
    return SmoothnessLadder(h_table=h_table, lbar2_table=lbar2)


def ladder_from_profile(profile, problem, h_max: float) -> SmoothnessLadder:
    """Ladder backed by the analytic LQR smoothness profile.

    The gradient Lipschitz constant over a sublevel set bounds the Hessian
    norm there, so the closed form replaces sampling.
    """
    from .lqr import smoothness_profile_L3
    h_table = np.linspace(0.0, h_max, 200)
    lbar2 = np.asarray(smoothness_profile_L3(profile, problem, h_table))
    return SmoothnessLadder(h_table=h_table, lbar2_table=lbar2)


@dataclass(frozen=True)
class PhiLadder:
    """Smoothed gradient-bound ladder.

    phi1(h) = 2 Lbar2(h) h + 5/2 h satisfies |grad J|^2 <= phi1(J - J*);
    phi2 is its forward moving average of width delta, with derivative
    phi2'(h) = (phi1(h+delta) - phi1(h))/delta >= 2 Lbar2(h) + 5/2.  Note
    phi2(0) > 0: the smoothing shifts the value at zero, so phi2 is not a
    class function and is exposed as a plain table-backed callable, as is
    its clamped inverse (arguments below phi2(0) map to 0).
    """

    phi1: ScalarClassFunction
    delta: float
    h_fine: np.ndarray = field(repr=False)
    phi1_vals: np.ndarray = field(repr=False)
    phi2_vals: np.ndarray = field(repr=False)
    avg_fn: Callable = field(repr=False)
    h_max: float = 0.0

    def phi2(self, h) -> np.ndarray:
        return self.avg_fn(np.minimum(np.asarray(h, dtype=float), self.h_max))

    def phi2_prime(self, h) -> np.ndarray:
        if isinstance(h, float):  # min keeps a NaN, as np.minimum does
            h, (xp, fp) = min(h, self.h_max), self._tables
            return (_interp(h + self.delta, xp, fp)
                    - _interp(h, xp, fp)) / self.delta
        h = np.minimum(np.asarray(h, dtype=float), self.h_max)
        return (np.interp(h + self.delta, self.h_fine, self.phi1_vals)
                - np.interp(h, self.h_fine, self.phi1_vals)) / self.delta

    @cached_property
    def _tables(self) -> tuple[list, list]:  # for phi2_prime of a float
        return self.h_fine.tolist(), self.phi1_vals.tolist()

    def phi2_inverse(self, y) -> np.ndarray:
        # restrict to the strictly increasing portion (h <= h_max); the
        # table saturates past it
        cut = np.searchsorted(self.h_fine, self.h_max, side="right")
        return np.interp(np.asarray(y, dtype=float), self.phi2_vals[:cut],
                         self.h_fine[:cut])


def _interp(x: float, xp: list, fp: list) -> float:
    """``np.interp(x, xp, fp)`` of one float on a finite table, in numpy's
    arithmetic (which retries a NaN result only on a non-finite table)."""
    j = bisect.bisect_right(xp, x) - 1  # len(xp) - 1 for a NaN
    if x != x or j < 0 or j == len(xp) - 1 or xp[j] == x:
        return x if x != x else fp[max(j, 0)]  # NaN, the ends, grid points
    return (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j]) * (x - xp[j]) + fp[j]


def phi_functions(ladder: SmoothnessLadder,
                  delta: float | None = None) -> PhiLadder:
    """Build the phi ladder from a smoothness ladder.

    delta defaults to 1e-2 * (1 + h_max): small enough that phi2 tracks
    phi1, large enough that the difference quotient is well conditioned.
    """
    h_max = ladder.h_max
    if delta is None:
        delta = 1e-2 * (1.0 + h_max)
    if delta <= 0:
        raise ValueError("delta must be positive")
    h_fine = np.linspace(0.0, h_max + delta, 2000)
    if h_fine[-1] > ladder.h_table[-1] + delta + 1e-12:
        raise ValueError("ladder grid does not cover h_max + delta")
    lbar2 = np.asarray(ladder.Lbar2(h_fine), dtype=float)
    phi1_vals = 2.0 * lbar2 * h_fine + 2.5 * h_fine
    big_phi = _cumulative_trapezoid(phi1_vals, h_fine)
    step = h_fine[1] - h_fine[0]

    def antiderivative(h):
        # exact integral of the piecewise-linear phi1 table, so the moving
        # average stays accurate even when delta is far below the grid step
        h = np.clip(np.asarray(h, dtype=float), 0.0, h_fine[-1])
        i = np.clip((h // step).astype(int), 0, h_fine.size - 2)
        dh = h - h_fine[i]
        slope = (phi1_vals[i + 1] - phi1_vals[i]) / step
        return big_phi[i] + phi1_vals[i] * dh + 0.5 * slope * dh * dh

    def avg(h):
        return (antiderivative(h + delta) - antiderivative(h)) / delta

    phi2_vals = avg(np.minimum(h_fine, h_max))
    # clamp beyond h_max where the table ends; values there are only used
    # by the inverse, which never queries past phi2(h_max)
    phi1_fn = ScalarClassFunction(
        eval=lambda h: np.interp(np.asarray(h, dtype=float), h_fine, phi1_vals),
        declared_class=KINF, description="2 Lbar2(h) h + 5/2 h")
    return PhiLadder(phi1=phi1_fn, delta=delta, h_fine=h_fine,
                     phi1_vals=phi1_vals, phi2_vals=phi2_vals, avg_fn=avg,
                     h_max=h_max)


def objective_size_function(obj: Objective) -> SizeFunction:
    """V = J - J*: :meth:`Objective.evaluate` shifted by the optimum."""
    def evaluate(z, hessian=False):
        values, grads, H = obj.evaluate(z, hessian)
        return values - obj.optimum_value, grads, H

    return SizeFunction(
        value=lambda z: np.asarray(obj.value(z), dtype=float) - obj.optimum_value,
        evaluate=evaluate)


def _mixed_pass(obj: Objective, x, hessian: bool):
    """(v, J(z) - J*, grad J(z), hess J(z) or None) of a (B, 2n) batch
    from one joint oracle call."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    v = x[:, obj.dim:]
    values, g, H = obj.evaluate(x[:, :obj.dim], hessian=hessian)
    return v, values - obj.optimum_value, g, H


def _momentum_size_function(obj: Objective, f, df, a: float,
                            c: float) -> SizeFunction:
    """V = f(h) + a <v, grad J> + c |v|^2 / 2 with h = J - J* and
    ``df(h)`` = f'(h).  The noise drives the velocity alone (G = [0; I]),
    so the noise Hessian G^T hess V G is c I."""
    n = obj.dim

    def combine(h, v, g):
        return (f(h) + a * np.sum(v * g, axis=-1)
                + c * (0.5 * np.sum(v * v, axis=-1)))

    def value(x):  # any leading shape (a float for one state), no Hessians
        x = np.asarray(x, dtype=float)
        v, h, g, _ = _mixed_pass(obj, x.reshape(-1, x.shape[-1]), False)
        return combine(h, v, g).reshape(x.shape[:-1])[()]

    def evaluate(x, hessian=False):
        v, h, g, H = _mixed_pass(obj, x, True)
        grads = np.hstack([df(h)[:, None] * g
                           + a * np.einsum("bij,bj->bi", H, v),
                           a * g + c * v])
        noise = np.broadcast_to(c * np.eye(n), (len(v), n, n))
        return combine(h, v, g), grads, noise if hessian else None

    return SizeFunction(value=value, evaluate=evaluate)


def v2_size_function(config: UnderdampedConfig) -> SizeFunction:
    return _momentum_size_function(config.objective, lambda h: h,
                                   np.ones_like, *config.lambdas[:2])


def v3_size_function(config: UnderdampedConfig) -> SizeFunction:
    phi = config.phi
    # phi2 clamps h at h_max, so it is flat past it
    return _momentum_size_function(
        config.objective, phi.phi2,
        lambda h: np.where(h > phi.h_max, 0.0, phi.phi2_prime(h)), 1.0, 2.0)


def _pl_modulus(obj: Objective) -> ScalarClassFunction:
    """The objective's PL modulus mu, which every certificate's alpha is
    built from."""
    if obj.envelope is None:
        raise ValueError("objective has no PL envelope")
    return obj.envelope


def _linear_gamma(coef: float, cap: float = np.inf) -> ScalarClassFunction:
    """gamma(s) = coef s: class K, or K on [0, cap) for a finite cap."""
    bounded = bool(np.isfinite(cap))
    return ScalarClassFunction(
        lambda s: coef * np.asarray(s, dtype=float),
        K_ON_0_D if bounded else K, d=cap,
        description=f"{coef:g} s" + (f" on [0, {cap:g})" if bounded else ""))


def _momentum_certificate(alpha: ScalarClassFunction,
                          coef: float) -> DissipationCertificate:
    """The V2 and V3 triple: NSS for a K-infinity alpha, else iNSS, with
    gamma(s) = coef s."""
    return DissipationCertificate(
        alpha=alpha, gamma=_linear_gamma(coef),
        kind="NSS" if alpha.declared_class == KINF else "iNSS")


def _square_envelope(mu: ScalarClassFunction) -> ScalarClassFunction:
    return ScalarClassFunction(
        eval=lambda r: np.square(np.asarray(mu.eval(r), dtype=float)),
        declared_class=mu.declared_class,
        description=f"({mu.description})^2")


def overdamped_certificate(config: OverdampedConfig,
                           cap: float = np.inf) -> DissipationCertificate:
    """Triple for V = J - J*: alpha(r) = mu(r)^2, gamma(s) = L K_G^2 s / 2.

    With an unbounded PL modulus this is an NSS certificate; a bounded
    modulus downgrades it to scNSS with covariance cap ``cap``.
    """
    obj = config.objective
    mu = _pl_modulus(obj)
    if obj.global_lipschitz is None:
        raise ValueError("certificate needs the global Lipschitz constant")
    alpha = _square_envelope(mu)
    coef = 0.5 * obj.global_lipschitz * config.k_g**2
    if alpha.declared_class == KINF:
        return DissipationCertificate(alpha=alpha, gamma=_linear_gamma(coef),
                                      kind="NSS")
    if not np.isfinite(cap):
        raise ValueError("bounded PL modulus: supply a finite covariance cap")
    return DissipationCertificate(alpha=alpha, gamma=_linear_gamma(coef, cap),
                                  kind="scNSS", d=cap)


def v2_certificate(config: UnderdampedConfig) -> DissipationCertificate:
    """Triple for V2: alpha(r) = lambda1 eta mu1(r / (2 lambda3)) with
    mu1(h) = min{mu(h)^2, c h / (2 lambda1 eta^2)}, and
    gamma(s) = lambda2 K_G^2 s / 2."""
    mu = _pl_modulus(config.objective)
    lam1, lam2, lam3 = config.lambdas
    eta, c = config.eta, config.c
    slope = c / (2.0 * lam1 * eta * eta)

    def alpha_eval(r):
        h = np.asarray(r, dtype=float) / (2.0 * lam3)
        mu1 = np.minimum(np.square(np.asarray(mu.eval(h), dtype=float)),
                         slope * h)
        return lam1 * eta * mu1

    alpha = ScalarClassFunction(alpha_eval, mu.declared_class,
                                description="lam1 eta mu1(r / (2 lam3))")
    return _momentum_certificate(alpha, 0.5 * lam2 * config.k_g**2)


def v3_certificate(config: UnderdampedConfig) -> DissipationCertificate:
    """Triple for V3: alpha(r) = mu3(r/3) with
    mu3(h) = min{mu(phi2^-1(h))^2, h}, gamma(s) = K_G^2 s.

    The clamped inverse zeroes mu3 below phi2(0); V3 itself never drops
    below phi2(0)/2, and shrinking alpha only weakens the certified decay,
    so the flat segment is conservative.
    """
    mu = _pl_modulus(config.objective)
    phi = config.phi
    if phi is None:
        raise ValueError("v3 certificate needs a PhiLadder")

    def alpha_eval(r):
        h = np.asarray(r, dtype=float) / 3.0
        inv = phi.phi2_inverse(h)
        mu3 = np.minimum(np.square(np.asarray(mu.eval(inv), dtype=float)), h)
        return mu3

    alpha = ScalarClassFunction(alpha_eval, mu.declared_class,
                                description="mu3(r/3)")
    return _momentum_certificate(alpha, config.k_g**2)
