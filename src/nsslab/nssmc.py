"""Monte Carlo verification of noise-to-state stability conclusions.

Runs ensembles over covariance sweeps, records tail quantiles of a size
function and blow-up fractions (the empirical gain curve), checks
exceedance of decay-plus-gain bounds with per-path suprema, brackets the
practical blow-up onset of small-covariance-stable dynamics, and tests
integral-gain accumulation bounds.

Every statistic is a reduction over paths, so no statistic keeps states.
A caller declares reducers (:class:`WindowValues`, :class:`PathMeans`,
:class:`Exceedance`, :class:`Supermartingale`), which
:func:`sde.simulate_ensemble` feeds with ``(record index, t, z, active)``
at every recorded step, and a sweep drops each ensemble once its last
batch has run: memory grows with N times the tail window, not with the
recorded horizon.  The reducers repeat the reductions of a recorded
(N, R, n) ensemble, kept in the tests as references, bit for bit.  Their
per-record f(z) equals f of the dense array whenever f is
row-independent (f of a batch equals f of each row, as for the quadratic
and LQR size functions; the logistic loss is a BLAS matmul, whose bits
the shipped digests pin); path means are summed path by path, as
``np.mean(..., axis=0)`` of an (N, R) array is; window values are kept in
the memory order of the dense window array, so a sum over them adds in
the same order (quantiles do not depend on the order).
:class:`WindowValues` and :class:`Exceedance` keep their per-path arrays
in shared pages (:func:`_shared`), so a batch can hold part of them:
``shard(lo, hi)`` is a copy for paths [lo, hi) that writes into views of
the original's arrays.
:func:`inss_accumulation_check` reads the :class:`Exceedance` of its
ensemble.

A sweep places its work by one plan (:func:`_batches`).  Its n
ensembles of N paths are R = n N rows, row j N + k being path k of
ensemble j, cut into S batches [R i // S, R (i + 1) // S):
S = ceil(R / 4096) when N < 4096 and the schedules can stack
(:func:`sde.stackable`), else n max(1, N // 4096), which cuts each
ensemble alone.  A batch is one
:func:`sde.simulate_ensemble` stack of its ensembles' path ranges.  On
K = min(workers, usable CPUs, S) processes, a round is K consecutive
batches, the first run in the parent and the others in forked workers.
An ensemble's reducers keep their arrays in shared pages, allocated in
the parent before the fork of the round that first runs it, so each
worker writes its rows where the parent reads them and sends back only
its report.  An ensemble is reduced and dropped after the round of its
last batch.  The batches depend on the sweep alone, each path draws from
its own generator, and each ensemble's reducers read only its rows of a
batch, so the curve is bit-identical for any ``workers``, whatever the
drift; with a row-independent drift and domain test it also equals each
ensemble run alone.

All statistics are pure functions of (experiment, master seed): paths use
counter-based per-path generators and reductions are deterministic.
"""

from __future__ import annotations

import copy
import mmap
import multiprocessing
import os
import traceback
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .compfun import ScalarClassFunction
from .lyapcert import SizeFunction, self_values
from .sde import (CovarianceSchedule, DiffusionModel, record_times,
                  simulate_ensemble, stackable, sup_noise_intensity)


MIN_PATHS = 100  # the fewest paths a sweep's probabilistic claims use
_BATCH_ROWS = 4096  # the rows of a batch of small ensembles, at most


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
        if self.N < MIN_PATHS:
            raise ValueError(f"probabilistic claims need N >= {MIN_PATHS}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if np.any(np.diff(self.intensities()) < 0):
            raise ValueError("schedule family must have ascending intensities")

    def intensities(self) -> np.ndarray:
        """sup |Sigma Sigma^T| of each schedule over [0, T]."""
        return np.array([sup_noise_intensity(s, 0.0, self.T)
                         for s in self.schedule_family])


@dataclass(frozen=True)
class GainCurve:
    """Per-intensity tail statistics of the size function.

    ``tail_quantiles`` are (1 - epsilon)-quantiles of V pooled over valid
    (path, time) pairs in the window [T/2, T]; entries are NaN when every
    path has left the domain before the window.  ``blowup_fractions``
    counts diverged paths: magnitude overflow or exit from the model
    domain (for gain dynamics, crossing the stability boundary), which
    both end a path.  ``exceedance_fractions`` holds
    :class:`Exceedance` fractions when the sweep was given bounds, else
    None.
    """

    intensities: np.ndarray
    tail_quantiles: np.ndarray
    blowup_fractions: np.ndarray
    exceedance_fractions: np.ndarray | None = None


class WindowValues:
    """Reducer: ``f(z)`` of every path at the records with
    t_lo <= t <= t_hi, kept time-major in the (W, N) array ``values``,
    and in ``valid`` the count of those at which each path was active; a
    path that has left never returns, so they are its first records.

    That is the memory order of the dense route's window array
    ``states[:, window, 0]`` (its advanced indexing returns an
    F-ordered (N, W) array), so a sum over ``values`` adds in its order.
    """

    def __init__(self, f: Callable[[np.ndarray], np.ndarray],
                 times: np.ndarray, n_paths: int, t_lo: float, t_hi: float):
        self.f = f
        self.index = np.flatnonzero((times >= t_lo) & (times <= t_hi))
        self.values = _shared((self.index.size, n_paths), float)
        self.valid = _shared(n_paths, np.int64)

    def __call__(self, i, t, z, active):
        w = i - self.index[0] if self.index.size else -1
        if 0 <= w < self.index.size:  # the window's records are contiguous
            self.values[w] = self.f(z)
            self.valid += active

    def shard(self, lo: int, hi: int) -> "WindowValues":
        part = copy.copy(self)
        part.values, part.valid = self.values[:, lo:hi], self.valid[lo:hi]
        return part

    def valid_values(self) -> np.ndarray:
        """The values of valid (record, path) pairs, record by record."""
        if (self.valid == self.index.size).all():
            return self.values.reshape(-1)
        return self.values[np.arange(self.index.size)[:, None] < self.valid]

    def quantile(self, q: float) -> float:
        """The q-quantile of the valid values, NaN when there is none; as
        it does not depend on their order, it partitions ``values``."""
        pooled = self.valid_values()
        return (float(np.quantile(pooled, q, overwrite_input=True))
                if pooled.size else np.nan)


class PathMeans:
    """Reducer: the mean over paths of ``f(z)`` at every record, summed
    path by path as ``np.mean(dense, axis=0)`` of the (N, R) array is."""

    def __init__(self, f: Callable[[np.ndarray], np.ndarray],
                 n_records: int):
        self.f = f
        self.means = np.empty(n_records)

    def __call__(self, i, t, z, active):
        x = self.f(z)
        self.means[i] = np.cumsum(x)[-1] / x.size  # sequential, not pairwise


class Exceedance:
    """Reducer: the fraction of paths whose V ever exceeds bound(V0, t) at
    a record in the window (default: the whole horizon).

    The per-path supremum convention matches a for-all-time guarantee on
    the grid.  Paths that left the domain at or before a window record
    count as exceeding.  ``bound`` is called on arrays (V0 as a column,
    t as a 1x1 row) and must broadcast over them; a scalar-only bound,
    such as one built on ``math.exp``, raises.
    """

    def __init__(self, V: SizeFunction,
                 bound: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 times: np.ndarray, n_paths: int,
                 window: tuple[float, float] | None = None):
        t_lo, t_hi = window if window is not None else (0.0, times[-1])
        self.V, self.bound = V, bound
        self.in_window = (times >= t_lo) & (times <= t_hi)
        self.exceeded = _shared(n_paths, bool)

    def __call__(self, i, t, z, active):
        if i and not self.in_window[i]:
            return
        v = self_values(self.V, z)
        if i == 0:
            self.v0 = v
        if self.in_window[i]:
            b = np.asarray(self.bound(self.v0[:, None], np.array([[t]])),
                           dtype=float)
            b = np.broadcast_to(b, (v.size, 1))[:, 0]
            self.exceeded |= ~active | (v > b)

    def shard(self, lo: int, hi: int) -> "Exceedance":
        part = copy.copy(self)
        part.exceeded = self.exceeded[lo:hi]
        return part

    def fraction(self) -> float:
        return float(self.exceeded.mean())


class Supermartingale:
    """Reducer: the mean-drift test of V outside the recurrence set
    {V <= threshold} (claim (e)).

    ``flags`` lists each record i at which the mean increment of V to
    record i + 1, over the paths valid at both records with V above the
    threshold at i, exceeds two Monte Carlo standard errors; a record with
    fewer than ``min_population`` such paths is not tested.  It keeps V
    of the previous record, one entry per path; a path active at i + 1 was
    active at i, because a path that has left never returns.
    """

    def __init__(self, V: SizeFunction, threshold: float,
                 min_population: int = 10):
        self.V, self.threshold = V, threshold
        self.min_population = max(min_population, 1)
        self.flags = []

    def __call__(self, i, t, z, active):
        v = self_values(self.V, z)
        if i:
            mask = active & (self.v > self.threshold)
            count = int(mask.sum())
            if count >= self.min_population:
                d = v[mask] - self.v[mask]
                se = d.std(ddof=1) / np.sqrt(count) if count > 1 else np.inf
                if d.mean() > 2.0 * se:
                    self.flags.append(i - 1)
        self.v = v


class _SweepEnsemble:
    """The j-th ensemble of a sweep: its reducers, whose arrays sit in
    shared pages allocated before it runs, so that a forked worker can
    fill part of them."""

    def __init__(self, exp: NssExperiment, j: int, bound):
        self.exp, self.j = exp, j
        times = record_times(exp.dt, exp.T, exp.store_every)
        # the window ends at T's record, so a path has left iff valid < W
        self.tail = WindowValues(lambda z: self_values(exp.V, z), times,
                                 exp.N, exp.T / 2.0, times[-1])
        self.exceed = None if bound is None else Exceedance(exp.V, bound,
                                                            times, exp.N)
        self.reducers = [r for r in (self.tail, self.exceed) if r is not None]

    def stats(self):
        """(tail quantile, blow-up fraction, exceedance fraction or None)."""
        return (self.tail.quantile(1.0 - self.exp.epsilon),
                float(np.mean(self.tail.valid < self.tail.index.size)),
                None if self.exceed is None else self.exceed.fraction())


def _batches(N: int, n_ensembles: int, can_stack: bool
             ) -> list[tuple[int, int]]:
    """The row ranges [a, b) of a sweep's batches (module docstring)."""
    R = N * n_ensembles
    S = (-(-R // _BATCH_ROWS) if can_stack and N < _BATCH_ROWS
         else n_ensembles * max(1, N // _BATCH_ROWS))
    return [(R * i // S, R * (i + 1) // S) for i in range(S)]


def _blocks(N: int, a: int, b: int) -> list[tuple[int, int, int]]:
    """(ensemble j, lo, hi) of each ensemble's paths in rows [a, b)."""
    return [(j, max(a - j * N, 0), min(b - j * N, N))
            for j in range(a // N, (b - 1) // N + 1)]


def _run_batch(exp: NssExperiment, ensembles: dict, a: int, b: int) -> None:
    """Integrate rows [a, b) of the sweep as one stack, into their part of
    the ensembles' reducers."""
    blocks = _blocks(exp.N, a, b)
    rows = [slice(j * exp.N + lo - a, j * exp.N + hi - a)
            for j, lo, hi in blocks]  # each block's rows of the batch
    simulate_ensemble(
        exp.dynamics, [exp.schedule_family[j] for j, _, _ in blocks],
        exp.x0, exp.dt, exp.T, [range(lo, hi) for _, lo, hi in blocks],
        [exp.master_seed + j for j, _, _ in blocks],
        store_every=exp.store_every,
        reducers=[_rows(r.shard(lo, hi), s)
                  for (j, lo, hi), s in zip(blocks, rows)
                  for r in ensembles[j].reducers])


def _rows(reduce, rows: slice):
    """``reduce`` fed ``rows`` of every record."""
    return lambda i, t, z, active: reduce(i, t, z[rows], active[rows])


def _shared(shape, dtype) -> np.ndarray:
    """A zero-filled array in anonymous shared pages, which a forked
    process writes for its parent to read."""
    dtype = np.dtype(dtype)
    size = int(np.prod(shape))
    pages = mmap.mmap(-1, max(size * dtype.itemsize, 1))  # not 0 bytes
    return np.frombuffer(pages, dtype, count=size).reshape(shape)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def run_experiment(exp: NssExperiment,
                   bounds: Sequence[Callable] | None = None,
                   workers: int = 1) -> GainCurve:
    """The gain curve of the sweep, its batches placed on up to
    ``workers`` processes (module docstring); the curve does not depend
    on ``workers``.

    Each ensemble keeps only V and valid counts on the tail window [T/2,
    T] and, with ``bounds`` (one bound(V0, t) per schedule), each path's
    running exceedance flag, whose fractions the curve carries.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if bounds is not None and len(bounds) != len(exp.schedule_family):
        raise ValueError("need one bound per schedule")
    N = exp.N
    batches = _batches(N, len(exp.schedule_family),
                       stackable(exp.schedule_family))
    K = min(workers, _usable_cpus(), len(batches))
    live, stats = {}, []
    for first in range(0, len(batches), K):
        round_ = batches[first:first + K]
        end = round_[-1][1]
        for j in range(round_[0][0] // N, (end - 1) // N + 1):
            if j not in live:
                live[j] = _SweepEnsemble(exp, j, None if bounds is None
                                         else bounds[j])
        _run_forked(lambda ab: _run_batch(exp, live, *ab), round_)
        # reduce and drop each ensemble whose last batch has run
        while live and (min(live) + 1) * N <= end:
            stats.append(live.pop(min(live)).stats())
    quants, blowups, fracs = zip(*stats)
    return GainCurve(intensities=exp.intensities(),
                     tail_quantiles=np.array(quants),
                     blowup_fractions=np.array(blowups),
                     exceedance_fractions=None if bounds is None
                     else np.array(fracs))


def _run_forked(run, parts):
    """``run(parts[0])`` in this process and each later part in a forked
    worker, whose results are what it wrote into shared pages
    (:func:`_shared`) allocated before the fork.

    A worker's exception is raised here with its type and message, and
    its traceback as the cause.  Every worker is reaped before this returns
    or raises; one still running then is terminated first.
    """
    ctx = multiprocessing.get_context("fork")
    procs = []
    try:
        for part in parts[1:]:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_forked_worker,
                               args=(send, run, part), daemon=True)
            proc.start()
            send.close()
            procs.append((proc, recv))
        run(parts[0])
        for proc, recv in procs:
            try:
                failure = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"forked worker exited with code {proc.exitcode} "
                    "before reporting") from None
            if failure is not None:
                exc, tb = failure
                raise exc from RuntimeError(f"in a forked worker:\n{tb}")
            proc.join()
    finally:
        for proc, recv in procs:
            recv.close()
            if proc.exitcode is None:
                proc.terminate()
            proc.join()


def _forked_worker(send, run, part):
    """A forked worker: ``run(part)``, then send None, or the exception and
    its traceback."""
    with send:
        try:
            run(part)
        except BaseException as exc:
            send.send((exc, traceback.format_exc()))
            raise
        send.send(None)


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


def scnss_threshold_scan(exp: NssExperiment, workers: int = 1
                         ) -> OnsetBracket:
    """Locate the empirical divergence onset over the intensity grid; the
    sweep runs on up to ``workers`` processes."""
    if len(exp.schedule_family) < 2:
        raise ValueError("onset bracketing needs at least two intensities")
    curve = run_experiment(exp, workers=workers)
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


def inss_accumulation_check(exp: NssExperiment, gamma: ScalarClassFunction,
                            beta_hat: Callable[[np.ndarray, np.ndarray],
                                               np.ndarray]
                            ) -> AccumulationReport:
    """Check V(t) <= beta_hat(V0, t) + integral of gamma(intensity) ds on
    the paths of a one-schedule experiment: at each record time the
    integral is an exact sum over the schedule's pieces, and violation is
    the ensemble's :class:`Exceedance` fraction (a per-path supremum over
    the horizon, its only reducer), which passes at most ``exp.epsilon``.
    """
    if len(exp.schedule_family) != 1:
        raise ValueError("the accumulation check takes one schedule")
    schedule = exp.schedule_family[0]
    times = record_times(exp.dt, exp.T, exp.store_every)
    g = np.asarray(gamma(schedule.intensities()), dtype=float)
    # in steps of dt: piece p starts on step s[p], record i is step r[i]
    s = np.rint(schedule.starts / exp.dt)
    r = np.rint(times / exp.dt)
    whole = np.concatenate([[0.0], np.cumsum(g[:-1] * (np.diff(s) * exp.dt))])
    p = np.searchsorted(s, r, "right") - 1
    integral = whole[p] + g[p] * ((r - s[p]) * exp.dt)

    def bound(v0, t):
        return np.asarray(beta_hat(v0, t)) + np.interp(t, times, integral)

    exceed = Exceedance(exp.V, bound, times, exp.N)
    simulate_ensemble(exp.dynamics, schedule, exp.x0, exp.dt, exp.T, exp.N,
                      exp.master_seed, store_every=exp.store_every,
                      reducers=[exceed])
    return AccumulationReport(violation_fraction=exceed.fraction(),
                              epsilon=exp.epsilon,
                              integral_gain_final=float(integral[-1]))
