"""Monte Carlo verification of noise-to-state stability conclusions.

Runs ensembles over covariance sweeps, records tail quantiles of a size
function and blow-up fractions (the empirical gain curve), checks
exceedance of decay-plus-gain bounds with per-path suprema, brackets the
practical blow-up onset of small-covariance-stable dynamics, and tests
integral-gain accumulation bounds.

All statistics are pure functions of (experiment, master seed): paths use
counter-based per-path generators and reductions are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .compfun import ScalarClassFunction
from .lyapcert import SizeFunction, self_values
from .sde import (CovarianceSchedule, DiffusionModel, TrajectoryEnsemble,
                  simulate_ensemble, sup_noise_intensity)


@dataclass(frozen=True)
class NssExperiment:
    """A covariance sweep over one dynamics/size-function pair."""

    dynamics: DiffusionModel
    V: SizeFunction
    schedule_family: Sequence[CovarianceSchedule]
    x0: np.ndarray
    N: int
    dt: float
    T: float
    master_seed: int
    epsilon: float = 0.05
    store_every: int = 1

    def __post_init__(self):
        if self.N < 100:
            raise ValueError("probabilistic claims need N >= 100")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        intensities = [sup_noise_intensity(s, 0.0, self.T) for s in
                       self.schedule_family]
        if any(b < a for a, b in zip(intensities, intensities[1:])):
            raise ValueError("schedule family must have ascending intensities")


@dataclass(frozen=True)
class GainCurve:
    """Per-intensity tail statistics of the size function.

    ``tail_quantiles`` are (1 - epsilon)-quantiles of V pooled over valid
    (path, time) pairs in the window [T/2, T]; entries are NaN when every
    path has left the domain before the window.  ``blowup_fractions``
    counts diverged paths: magnitude overflow or exit from the model
    domain (for gain dynamics, crossing the stability boundary), which
    both end a path.
    """

    intensities: np.ndarray
    tail_quantiles: np.ndarray
    blowup_fractions: np.ndarray
    epsilon: float


def tail_window_values(ensemble: TrajectoryEnsemble, V: SizeFunction,
                       t_lo: float, t_hi: float) -> np.ndarray:
    """Pooled V values over valid (path, time) pairs in [t_lo, t_hi]."""
    idx = np.flatnonzero((ensemble.times >= t_lo) & (ensemble.times <= t_hi))
    if idx.size == 0:
        return np.array([])
    vals = self_values(V, ensemble.states[:, idx])  # (N, W)
    alive = idx[None, :] < ensemble.valid_counts[:, None]
    return vals[alive]


def run_experiment(exp: NssExperiment
                   ) -> tuple[GainCurve, list[TrajectoryEnsemble]]:
    intensities, quants, blowups, ensembles = [], [], [], []
    for j, schedule in enumerate(exp.schedule_family):
        ens = simulate_ensemble(exp.dynamics, schedule, exp.x0, exp.dt, exp.T,
                                exp.N, exp.master_seed + j,
                                store_every=exp.store_every)
        ensembles.append(ens)
        intensities.append(sup_noise_intensity(schedule, 0.0, exp.T))
        pooled = tail_window_values(ens, exp.V, exp.T / 2.0, exp.T)
        quants.append(float(np.quantile(pooled, 1.0 - exp.epsilon))
                      if pooled.size else np.nan)
        blowups.append(float(np.mean(ens.exited)))
    curve = GainCurve(intensities=np.array(intensities),
                      tail_quantiles=np.array(quants),
                      blowup_fractions=np.array(blowups),
                      epsilon=exp.epsilon)
    return curve, ensembles


def exceedance_fraction(ensemble: TrajectoryEnsemble, V: SizeFunction,
                        bound: Callable[[float, float], float],
                        window: tuple[float, float] | None = None) -> float:
    """Fraction of paths whose V ever exceeds bound(V0, t) in the window.

    The per-path supremum convention matches a for-all-time guarantee on
    the grid.  Paths that left the domain at or before the window count as
    exceeding.  ``bound`` is called once on arrays (V0 as a column, the
    window times as a row); a bound that only takes scalars, and so raises
    TypeError or ValueError there, is evaluated point by point.
    """
    t_lo, t_hi = window if window is not None else (0.0, ensemble.times[-1])
    idx = np.flatnonzero((ensemble.times >= t_lo) & (ensemble.times <= t_hi))
    vals = self_values(V, ensemble.states)  # (N, R)
    v0 = vals[:, 0]
    try:
        bmat = np.asarray(bound(v0[:, None], ensemble.times[None, idx]),
                          dtype=float)
        bmat = np.broadcast_to(bmat, (ensemble.n_paths, idx.size))
    except (TypeError, ValueError):  # a scalar-only bound, e.g. math.exp
        bmat = np.array([[bound(float(a), float(ensemble.times[i]))
                          for i in idx] for a in v0])
    alive = idx[None, :] < ensemble.valid_counts[:, None]
    over = (vals[:, idx] > bmat) & alive
    dead_in_window = ensemble.exited & ~alive.all(axis=1)
    exceed = over.any(axis=1) | dead_in_window
    return float(exceed.mean())


@dataclass(frozen=True)
class DecayFit:
    """Empirical decay surrogate beta(V0, t) = headroom * V0 * exp(-rate*t),
    least-squares fit to the noiseless ensemble mean of V."""

    rate: float
    headroom: float

    def __call__(self, v0, t):
        return self.headroom * np.asarray(v0) * np.exp(-self.rate * np.asarray(t))


def fit_decay_envelope(noiseless: TrajectoryEnsemble, V: SizeFunction,
                       headroom: float = 1.1, floor: float = 1e-12) -> DecayFit:
    """Log-linear decay rate of the mean of V on a noiseless ensemble."""
    vals = self_values(V, noiseless.states)
    mean = vals.mean(axis=0)
    keep = mean > floor * max(mean[0], 1.0)
    if keep.sum() < 2:
        raise ValueError("mean of V too flat or too short to fit a decay rate")
    t = noiseless.times[keep]
    y = np.log(mean[keep])
    rate = -np.polyfit(t, y, 1)[0]
    if rate <= 0:
        raise ValueError(f"no decay detected: fitted rate {rate:g}")
    return DecayFit(rate=float(rate), headroom=headroom)


@dataclass(frozen=True)
class OnsetBracket:
    """Bracket on the practical blow-up onset intensity.

    ``lower`` is the largest grid intensity with blow-up fraction <= 1%
    and a finite tail quantile; ``upper`` is the smallest with >= 50%.
    Instance-specific; not an estimate of any analytic threshold.
    """

    lower: float | None
    upper: float | None
    curve: GainCurve

    @property
    def upper_onset_detected(self) -> bool:
        return self.upper is not None

    def describe(self) -> str:
        lo = "none" if self.lower is None else f"{self.lower:g}"
        if self.upper is None:
            return (f"practical onset: stable up to {lo}; "
                    "no upper onset detected within grid")
        return f"practical onset bracket: [{lo}, {self.upper:g}]"


def scnss_threshold_scan(exp: NssExperiment) -> OnsetBracket:
    """Locate the empirical divergence onset over the intensity grid."""
    if len(exp.schedule_family) < 2:
        raise ValueError("onset bracketing needs at least two intensities")
    curve, _ = run_experiment(exp)
    stable = (curve.blowup_fractions <= 0.01) & np.isfinite(curve.tail_quantiles)
    divergent = curve.blowup_fractions >= 0.5
    lower = curve.intensities[stable].max() if stable.any() else None
    upper = curve.intensities[divergent].min() if divergent.any() else None
    return OnsetBracket(lower=lower, upper=upper, curve=curve)


@dataclass(frozen=True)
class AccumulationReport:
    violation_fraction: float
    epsilon: float
    integral_gain_final: float

    @property
    def passed(self) -> bool:
        return self.violation_fraction <= self.epsilon


def inss_accumulation_check(ensemble: TrajectoryEnsemble, V: SizeFunction,
                            gamma: ScalarClassFunction,
                            schedule: CovarianceSchedule,
                            beta_hat: Callable[[float, float], float],
                            epsilon: float = 0.05) -> AccumulationReport:
    """Check V(t) <= beta_hat(V0, t) + integral of gamma(intensity) ds.

    The integral gain is accumulated on the recorded grid by trapezoid;
    violation is per-path supremum over the whole horizon.
    """
    times = ensemble.times
    inten = np.array([schedule.instantaneous_intensity(t) for t in times])
    g = np.asarray(gamma(inten), dtype=float)
    integral = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1])
                                                * np.diff(times))])

    def bound(v0, t):
        return np.asarray(beta_hat(v0, t)) + np.interp(t, times, integral)

    frac = exceedance_fraction(ensemble, V, bound)
    return AccumulationReport(violation_fraction=frac, epsilon=epsilon,
                              integral_gain_final=float(integral[-1]))
