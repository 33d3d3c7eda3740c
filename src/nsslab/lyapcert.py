"""Infinitesimal-generator evaluation and sampling-based Lyapunov
dissipation certificates.

The generator of a diffusion dx = f(x) dt + G Theta dB, with the model's
constant noise map G, acting on a size function V is

    L[V](xi, Theta) = <grad V(xi), f(xi)>
                      + 1/2 trace(Theta^T G^T hess V(xi) G Theta).

A size function gives grad V and its noise Hessian G^T hess V G (hess V
for G = I), the only part of hess V the generator reads, of a batch in
one ``evaluate`` pass.  The certificates bound the second term through
K_G = |G|_F, which is sqrt(n) for the identity and for the underdamped
[0; I] block alike.

Certification is falsification on samples, never proof: check_dissipation
searches for (state, Theta) pairs violating

    L[V](xi, Theta) <= -alpha(V(xi)) + gamma(|Theta Theta^T|)

and records witnesses.  An empty violation list means "no counterexample
found on the samples", nothing stronger.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .compfun import (K, K_ON_0_D, KINF, PD, BracketError, DomainViolation,
                      ScalarClassFunction, invert, invert_auto)
from .sde import DiffusionModel, TrajectoryPath


class AdmissibilityError(ValueError):
    """Noise intensity too large for a small-covariance certificate."""


@dataclass(frozen=True)
class SizeFunction:
    """Positive definite coercive scalar of the state with derivatives.

    The contract of :class:`objectives.Objective`, but for the Hessian:
    ``value`` maps states with any leading shape to V, the cheap path
    that every reducer reads, and ``evaluate(x, hessian=False)`` returns
    (values (B,), gradients (B, n), noise Hessians G^T hess V G (B, m, m)
    or None) for a (B, n) batch in one pass over the oracles V is built
    on, where G is the (n, m) noise map of the model V certifies.  The
    ``*_at`` methods are one-point views.
    """

    value: Callable[[np.ndarray], np.ndarray]
    evaluate: Callable[..., tuple]

    def gradient_at(self, xi) -> np.ndarray:
        return self.evaluate(np.asarray(xi, dtype=float)[None])[1][0]

    def hessian_at(self, xi) -> np.ndarray:
        """The noise Hessian G^T hess V G (m, m) of one state."""
        return self.evaluate(np.asarray(xi, dtype=float)[None],
                             hessian=True)[2][0]


_KIND_CLASSES = {
    # kind -> (required alpha class set, required gamma class set)
    "NSS": ({KINF}, {K, KINF}),
    "scNSS": ({K, KINF}, {K_ON_0_D}),
    "iNSS": ({PD, K, KINF}, {K, KINF}),
}


@dataclass
class DissipationCertificate:
    """A dissipation-rate pair (alpha, gamma) of a declared stability kind.

    ``d`` caps the admissible noise covariance norm for the scNSS kind.
    ``violations`` holds (state, Theta, lhs, rhs) witnesses found by
    check_dissipation; it is empty for a freshly declared certificate.
    """

    alpha: ScalarClassFunction
    gamma: ScalarClassFunction
    kind: str
    d: float = np.inf
    violations: list = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in _KIND_CLASSES:
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        alpha_ok, gamma_ok = _KIND_CLASSES[self.kind]
        if self.alpha.declared_class not in alpha_ok:
            raise ValueError(f"{self.kind} needs alpha in {sorted(alpha_ok)}, "
                             f"got {self.alpha.declared_class}")
        if self.gamma.declared_class not in gamma_ok:
            raise ValueError(f"{self.kind} needs gamma in {sorted(gamma_ok)}, "
                             f"got {self.gamma.declared_class}")
        if self.kind == "scNSS" and not np.isfinite(self.d):
            raise ValueError("scNSS certificate needs a finite covariance cap d")


def generator_apply(V: SizeFunction, model: DiffusionModel, states,
                    Theta: np.ndarray) -> np.ndarray:
    """Generator of the model's diffusion with noise transform Theta on an
    (S, n) batch of states (one state may be passed as a vector); (S,).
    The noise term contracts Theta with V's (S, m, m) noise Hessians."""
    x = np.asarray(states, dtype=float).reshape(-1, model.state_dim)
    Theta = np.atleast_2d(np.asarray(Theta, dtype=float))
    if Theta.shape != (model.noise_dim, model.noise_dim):
        raise ValueError(f"Theta must be {model.noise_dim}x{model.noise_dim}")
    noisy = bool(np.any(Theta))
    _, grads, M = V.evaluate(x, hessian=noisy)
    drift_term = np.einsum("si,si->s", grads, np.asarray(model.drift(x)))
    if not noisy:
        return drift_term
    if M.shape != (len(x),) + Theta.shape:
        raise ValueError(f"noise Hessians must be {(len(x),) + Theta.shape} "
                         f"(G^T hess V G), got {M.shape}")
    return drift_term + 0.5 * np.einsum("im,sij,jm->s", Theta, M, Theta)


def default_state_samples(equilibrium, count: int = 1000,
                          seed: int = 0) -> np.ndarray:
    """Gaussian clouds around the equilibrium at scales 0.1, 1 and 10,
    count // 3 states each.

    Covers near-equilibrium, moderate, and coercive regimes; callers append
    extremes of their own.
    """
    eq = np.asarray(equilibrium, dtype=float).reshape(-1)
    rng = np.random.Generator(np.random.Philox(key=seed))
    return np.concatenate([eq + s * rng.standard_normal((count // 3, eq.size))
                           for s in (0.1, 1.0, 10.0)], axis=0)


def default_theta_samples(m: int, cap: float = np.inf) -> list[np.ndarray]:
    """Isotropic noise transforms sigma*I at a geometric intensity ladder.

    Ten intensities |Theta Theta^T| = sigma^2 run from 1e-3 to 10,
    truncated below a finite cap with 10% headroom.
    """
    top = 10.0 if not np.isfinite(cap) else 0.9 * cap
    return [np.sqrt(s) * np.eye(m) for s in np.geomspace(1e-3, top, 10)]


# slack of the dissipation test, relative to 1 + |rhs|: the overdamped
# certificate holds with equality up to rounding and passes only through it
_DISSIPATION_TOL = 1e-8


def check_dissipation(V: SizeFunction, model: DiffusionModel,
                      cert: DissipationCertificate, states,
                      thetas) -> DissipationCertificate:
    """Search (state, Theta) samples for dissipation violations.

    A pair is a violation when lhs > rhs + 1e-8 (1 + |rhs|)
    (``_DISSIPATION_TOL``).  Returns a copy of the certificate with the
    witness list filled, sorted by excess.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    decay = -np.asarray(cert.alpha(V.value(states)), dtype=float)
    violations = []
    for Theta in thetas:
        Theta = np.atleast_2d(np.asarray(Theta, dtype=float))
        s = float(np.linalg.norm(Theta @ Theta.T, 2))
        if cert.kind == "scNSS" and s >= cert.d:
            raise DomainViolation(
                f"Theta intensity {s:g} >= scNSS cap d={cert.d:g}")
        lhs = generator_apply(V, model, states, Theta)
        rhs = decay + float(cert.gamma(s))
        bad = lhs > rhs + _DISSIPATION_TOL * (1.0 + np.abs(rhs))
        violations += zip(states[bad], [Theta.copy()] * int(bad.sum()),
                          lhs[bad].tolist(), rhs[bad].tolist())
    violations.sort(key=lambda w: (w[3] - w[2], tuple(w[0])))
    return replace(cert, violations=violations)


@dataclass(frozen=True)
class SetDLevel:
    """Sublevel threshold defining the recurrence set, plus the scNSS
    admissibility bound d1 on the noise intensity."""

    level: float
    d1: float


def set_D_threshold(alpha: ScalarClassFunction, gamma: ScalarClassFunction,
                    c: float, sup_intensity: float, bracket: float = 1e6,
                    small_covariance: bool = False) -> SetDLevel:
    """Level alpha^-1(c * gamma(sup_intensity)) of the recurrence set.

    ``bracket`` bounds the inversion search and, for bounded alpha, the
    range sup used in d1 = gamma^-1(sup alpha / c).  With
    ``small_covariance`` set, intensities at or above d1 raise
    :class:`AdmissibilityError`.
    """
    if c <= 1:
        raise ValueError("require c > 1")
    if sup_intensity < 0:
        raise ValueError("sup_intensity must be nonnegative")
    sup_alpha = float(alpha.eval(bracket))
    try:
        d1 = invert_auto(gamma, sup_alpha / c)
    except BracketError:
        d1 = np.inf  # gamma saturates below sup_alpha/c: no cap active
    if small_covariance and sup_intensity >= d1:
        raise AdmissibilityError(
            f"sup intensity {sup_intensity:g} >= admissible d1 = {d1:g}")
    if sup_intensity == 0.0:
        return SetDLevel(level=0.0, d1=d1)
    target = c * float(gamma(sup_intensity))
    level = invert(alpha, target, bracket)
    return SetDLevel(level=level, d1=d1)


def entry_exit_times(path: TrajectoryPath, V: SizeFunction,
                     threshold: float) -> list[tuple[int, int | None]]:
    """Alternating grid indices where V(state) enters (<=) and exits (>)
    the threshold sublevel set.  An interval open at the end of the path
    has exit index None.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    vals = np.asarray(self_values(V, path.states))
    inside = vals <= threshold
    intervals = []
    enter = None
    for i, flag in enumerate(inside):
        if flag and enter is None:
            enter = i
        elif not flag and enter is not None:
            intervals.append((enter, i))
            enter = None
    if enter is not None:
        intervals.append((enter, None))
    return intervals


def self_values(V: SizeFunction, states: np.ndarray) -> np.ndarray:
    """V over an array of states with any leading shape."""
    return np.asarray(V.value(np.asarray(states, dtype=float)), dtype=float)


def certificate_summary(cert: DissipationCertificate) -> str:
    n = len(cert.violations)
    verdict = ("no counterexample found on samples" if n == 0
               else f"{n} violation(s); worst excess "
                    f"{max(l - r for _, _, l, r in cert.violations):.3e}")
    return (f"dissipation certificate kind={cert.kind} "
            f"alpha[{cert.alpha.declared_class}] gamma[{cert.gamma.declared_class}] "
            f"d={cert.d:g}: {verdict}")
