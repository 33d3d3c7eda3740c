"""Helpers that several test modules share and no run of the package
needs: a size function, the per-point finite-difference reference of
size-function derivatives, a sampler of stabilising LQR gains, a check of
the logistic gradient bound, a replay of recorded ensembles into
reducers, the schedule a run sees of a function of time, and the decay
envelope of the noiseless scalar Euler chain."""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nsslab.lqr import LqrPlProfile, LqrProblem, hurwitz_mask
from nsslab.lyapcert import SizeFunction
from nsslab.nssmc import Exceedance
from nsslab.objectives import LogisticModel, logistic_gradient
from nsslab.sde import CovarianceSchedule, TrajectoryEnsemble


def half_norm_squared(center=None) -> SizeFunction:
    """V(x) = 1/2 |x - center|^2."""
    def gradient(x):
        x = np.asarray(x, dtype=float)
        return x if center is None else x - np.asarray(center, dtype=float)

    def value(x):
        d = gradient(x)
        return 0.5 * np.sum(d * d, axis=-1)

    def evaluate(x, hessian=False):
        x = np.asarray(x, dtype=float)
        H = np.repeat(np.eye(x.shape[1])[None], len(x), axis=0)
        return value(x), gradient(x), H if hessian else None

    return SizeFunction(value=value, evaluate=evaluate)


@dataclass(frozen=True)
class ReferenceSizeFunction:
    """Positive definite coercive scalar of the state with derivatives.

    ``value`` must be vectorized over leading axes; ``gradient`` and
    ``hessian`` take one state and default to central differences with
    step 1e-5 * (1 + |xi|).

    The one-state size function the package's batched one replaced, kept
    verbatim as the finite-difference reference of the derivatives; a
    non-finite probe raises FloatingPointError.
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    hessian: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = ""

    def value_at(self, xi) -> float:
        return float(np.asarray(self.value(np.asarray(xi, dtype=float))))

    def _fd_step(self, xi: np.ndarray) -> float:
        return 1e-5 * (1.0 + float(np.linalg.norm(xi)))

    def gradient_at(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        if self.gradient is not None:
            return np.asarray(self.gradient(xi), dtype=float)
        h = self._fd_step(xi)
        n = xi.size
        probes = np.repeat(xi[None], 2 * n, axis=0)
        probes[:n] += h * np.eye(n)
        probes[n:] -= h * np.eye(n)
        vals = np.asarray(self.value(probes), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise FloatingPointError(f"non-finite probe near {xi!r}")
        return (vals[:n] - vals[n:]) / (2.0 * h)

    def hessian_at(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        if self.hessian is not None:
            return np.asarray(self.hessian(xi), dtype=float)
        h = self._fd_step(xi)
        n = xi.size
        eye = np.eye(n)
        H = np.empty((n, n))
        v0 = self.value_at(xi)
        for i in range(n):
            for j in range(i, n):
                if i == j:
                    vp = self.value_at(xi + h * eye[i])
                    vm = self.value_at(xi - h * eye[i])
                    H[i, i] = (vp - 2.0 * v0 + vm) / h**2
                else:
                    vpp = self.value_at(xi + h * (eye[i] + eye[j]))
                    vpm = self.value_at(xi + h * (eye[i] - eye[j]))
                    vmp = self.value_at(xi - h * (eye[i] - eye[j]))
                    vmm = self.value_at(xi - h * (eye[i] + eye[j]))
                    H[i, j] = H[j, i] = (vpp - vpm - vmp + vmm) / (4.0 * h**2)
        if not np.all(np.isfinite(H)):
            raise FloatingPointError(f"non-finite Hessian probe near {xi!r}")
        return H


def random_stabilizing_gains(problem: LqrProblem, profile: LqrPlProfile,
                             count: int, seed: int,
                             spread: float = 1.0) -> np.ndarray:
    """Stabilizing gains sampled by Gaussian perturbation of the optimum.

    Rejection-samples until ``count`` gains pass the Hurwitz test.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    out = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > 1000 * count:
            raise RuntimeError("rejection sampling stalled; lower spread")
        K = profile.Kstar + spread * rng.standard_normal(profile.Kstar.shape)
        closed_loop = problem.A[None] - np.einsum("nm,bmk->bnk", problem.F,
                                                  K[None])
        if hurwitz_mask(closed_loop)[0]:
            out.append(K)
    return np.array(out)


@dataclass(frozen=True)
class GradientBoundReport:
    bound: float
    max_norm: float
    max_ratio: float

    @property
    def holds(self) -> bool:
        return self.max_norm <= self.bound + 1e-12


def gradient_bound_check(model: LogisticModel, thetas) -> GradientBoundReport:
    """Check the global gradient bound |grad J| <= |X|/sqrt(N) on samples;
    the bound rules out unbounded PL moduli."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    bound = float(np.linalg.norm(model.X, 2)) / np.sqrt(model.n_samples)
    norms = np.linalg.norm(logistic_gradient(model, thetas), axis=1)
    max_norm = float(norms.max()) if norms.size else 0.0
    ratio = max_norm / bound if bound > 0 else (np.inf if max_norm > 0 else 0.0)
    return GradientBoundReport(bound=bound, max_norm=max_norm, max_ratio=ratio)


def replay(ensemble: TrajectoryEnsemble, reducers) -> None:
    """Feed a recorded ensemble's states to reducers, record by record, as
    the integrator would have."""
    for i, t in enumerate(ensemble.times):
        z = np.ascontiguousarray(ensemble.states[:, i])
        active = i < ensemble.valid_counts
        for reduce in reducers:
            reduce(i, t, z, active)


def replayed_exceedance(ensemble: TrajectoryEnsemble, V: SizeFunction, bound,
                        window=None) -> float:
    """The :class:`Exceedance` fraction of a recorded ensemble, its reducer
    fed by :func:`replay`."""
    red = Exceedance(V, bound, ensemble.times, len(ensemble.states), window)
    replay(ensemble, [red])
    return red.fraction()


def piecewise(fn, dt: float, T: float) -> CovarianceSchedule:
    """The schedule that a run on the dt grid sees of Sigma(t) = fn(t):
    fn(k dt) held on step [k dt, (k + 1) dt) of [0, T), at the floats
    k dt of the integrator's steps, with runs of equal matrices merged
    into one piece."""
    starts = np.arange(int(round(T / dt))) * dt
    sigmas = np.array([np.atleast_2d(np.asarray(fn(t), dtype=float))
                       for t in starts])
    new = np.ones(starts.size, dtype=bool)
    new[1:] = (sigmas[1:] != sigmas[:-1]).any(axis=(1, 2))
    return CovarianceSchedule(starts[new], sigmas[new], T)


def euler_decay(dt: float, headroom: float):
    """beta(V0, t) = headroom V0 exp(-rate t) of V = z^2/2 under the Euler
    chain of dz = -z dt, whose V_k = V0 (1 - dt)^(2k): rate =
    -2 log1p(-dt) / dt, as gain-sweep builds it."""
    rate = -2.0 * math.log1p(-dt) / dt
    return lambda v0, t: headroom * v0 * np.exp(-rate * t)
