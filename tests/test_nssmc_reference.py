"""The reducer route of the Monte Carlo layer against the dense route it
replaced.

The reference below is the earlier implementation, kept verbatim apart
from its names: the integrator that recorded every state into an (R, B, n)
array and returned a transposed (B, R, n) copy, ``simulate_ensemble`` on
top of it, and the reductions over those dense arrays --
``tail_window_values``, ``run_experiment`` (which returned every
ensemble), ``exceedance_fraction`` (an (N, R) array of V and of the
bound), the mean of V over a quiet ensemble, the ou-sanity moments,
``inss_accumulation_check`` on a recorded ensemble and the
``supermartingale_diagnostic`` of claim (e).  The reducers must give the
same statistics bit for bit.
"""

import math
import tracemalloc
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np
import pytest

from nsslab import cli, nssmc, sde
from nsslab.compfun import ScalarClassFunction
from nsslab.langevin import (OverdampedConfig, build_overdamped,
                             objective_size_function)
from nsslab.lqr import (LqrProblem, gain_noise_schedule, lqr_objective,
                        solve_riccati, vec_gain)
from nsslab.lyapcert import SizeFunction, self_values
from nsslab.nssmc import (AccumulationReport, Exceedance, GainCurve,
                          NssExperiment, PathMeans, Supermartingale,
                          WindowValues, run_experiment)
from nsslab.objectives import quadratic_objective
from nsslab.sde import (BLOWUP_LIMIT, CovarianceSchedule, DiffusionModel,
                        TrajectoryEnsemble, _diagonal, _times_transpose,
                        record_times, simulate_ensemble,
                        sup_noise_intensity)

from helpers import half_norm_squared, replay, replayed_exceedance
from test_sde import reference_path_seed

_SLAB_ELEMS = 1 << 22
_TILE_ELEMS = 1 << 17


def reference_self_values(V: SizeFunction, states: np.ndarray) -> np.ndarray:
    """V over an array of states with any leading shape."""
    return np.asarray(V.value(np.asarray(states, dtype=float)), dtype=float)


def reference_simulate_batch(model: DiffusionModel, schedule: CovarianceSchedule,
                    x0s: np.ndarray, dt: float, T: float,
                    seeds: Sequence[int], store_every: int):
    n, m = model.state_dim, model.noise_dim
    B = x0s.shape[0]
    nsteps = int(round(T / dt))
    if abs(nsteps * dt - T) > 1e-9 * max(1.0, T):
        nsteps = int(math.ceil(T / dt - 1e-12))

    rec_steps = list(range(0, nsteps + 1, store_every))
    if rec_steps[-1] != nsteps:
        rec_steps.append(nsteps)
    rec_lookup = {s: i for i, s in enumerate(rec_steps)}
    R = len(rec_steps)

    states = np.empty((R, B, n))
    gens = [np.random.Generator(np.random.Philox(key=int(s) & (2**64 - 1)))
            for s in seeds]

    z = np.array(x0s, dtype=float)
    states[0] = z
    active = np.ones(B, dtype=bool)
    all_active = True
    exited = np.zeros(B, dtype=bool)
    blowup = np.zeros(B, dtype=bool)
    exit_steps = np.full(B, -1, dtype=np.int64)
    valid_counts = np.ones(B, dtype=np.int64)

    def sigma(t):  # Sigma of the piece that holds t
        return schedule.sigmas[np.searchsorted(schedule.starts, t,
                                               "right") - 1]

    sqdt = math.sqrt(dt)
    constant = len(schedule.starts) == 1
    if constant:
        sig = np.asarray(sigma(0.0), dtype=float) * sqdt
        diag = _diagonal(sig)

    identity_g = model.noise_map is None
    # Noise is step-major: slab[j] is the contiguous (B, m) block of step j.
    # Each path's chunk is drawn into a path tile (at most _TILE_ELEMS, so
    # one path's chunk always fits) and copied transposed into the slab (at
    # most _SLAB_ELEMS); the tile keeps that copy in cache.
    chunk = max(64, min(nsteps, _SLAB_ELEMS // max(B * m, 1),
                        _TILE_ELEMS // max(m, 1)))
    P = min(B, max(1, _TILE_ELEMS // max(chunk * m, 1)))
    slab = np.empty((chunk, B, m))
    tile = np.empty((P, chunk, m))

    step = 0
    while step < nsteps:
        c = min(chunk, nsteps - step)
        # every path draws, exited or not, so streams stay aligned with
        # per-path runs
        for k0 in range(0, B, P):
            k1 = min(B, k0 + P)
            for k in range(k0, k1):
                gens[k].standard_normal(out=tile[k - k0, :c])
            slab[:c, k0:k1] = tile[:k1 - k0, :c].transpose(1, 0, 2)
        for j in range(c):
            if not constant:
                sig = np.asarray(sigma(step * dt), dtype=float) * sqdt
                diag = _diagonal(sig)
            w = _times_transpose(slab[j], sig, diag)
            if identity_g:
                noise = w
            else:
                g = np.broadcast_to(model.noise_map, (B, n, m))
                noise = np.einsum("bnm,bm->bn", g, w)
            z_new = z + model.drift(z) * dt + noise
            step += 1

            if (all_active and model.domain_test is None
                    and (np.abs(z_new) <= BLOWUP_LIMIT).all()):
                z = z_new
            else:
                # validity of the proposed states for currently active paths
                mags = np.max(np.abs(z_new), axis=1)
                blown = ~(mags <= BLOWUP_LIMIT)  # catches NaN/inf as well
                bad = blown.copy()
                if model.domain_test is not None:
                    bad |= ~np.asarray(model.domain_test(z_new), dtype=bool)
                newly_dead = active & bad
                if newly_dead.any():
                    exited |= newly_dead
                    blowup |= active & blown
                    exit_steps[newly_dead] = step
                    active &= ~bad
                all_active = bool(active.all())
                if all_active:
                    z = z_new
                else:
                    z = np.where(active[:, None], z_new, z)

            ri = rec_lookup.get(step)
            if ri is not None:
                states[ri] = z
                valid_counts[active] = ri + 1

    del slab, tile  # before the transposed copy of the states
    times = np.array(rec_steps, dtype=float) * dt
    return (times, np.ascontiguousarray(states.transpose(1, 0, 2)),
            valid_counts, exited, blowup, exit_steps)



def reference_simulate_ensemble(model: DiffusionModel, schedule: CovarianceSchedule,
                      x0, dt: float, T: float, N: int, master_seed: int,
                      store_every: int = 1) -> TrajectoryEnsemble:
    """Integrate N paths with per-path seeds derived from the master seed.

    A failed path (domain exit or blow-up) is retained with its exit flag.
    Output is bit-identical for any parallelism degree: all paths step in
    one vectorized batch and each path draws from its own generator.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    x0 = np.asarray(x0, dtype=float)
    x0s = np.broadcast_to(x0.reshape(-1) if x0.ndim == 1 else x0,
                          (N, model.state_dim)).copy() if x0.ndim == 1 \
        else np.array(x0, dtype=float)
    if x0s.shape != (N, model.state_dim):
        raise ValueError("x0 must be (n,) or (N, n)")
    reference_validate_sim_args(model, x0s, dt, T, store_every)
    seeds = np.array([reference_path_seed(master_seed, k) for k in range(N)],
                     dtype=np.uint64)
    times, states, valid, exited, blowup, _ = reference_simulate_batch(
        model, schedule, x0s, dt, T, seeds, store_every)
    return TrajectoryEnsemble(times=times, states=states, valid_counts=valid,
                              exited=exited, blowup=blowup, dt=dt)


def reference_validate_sim_args(model, x0s, dt, T, store_every):
    if dt <= 0 or dt > T:
        raise ValueError("require 0 < dt <= T")
    if store_every < 1:
        raise ValueError("store_every must be >= 1")
    if model.domain_test is not None:
        ok = np.asarray(model.domain_test(x0s), dtype=bool)
        if not ok.all():
            raise ValueError("initial state outside the model domain")


def reference_tail_window_values(ensemble: TrajectoryEnsemble, V: SizeFunction,
                       t_lo: float, t_hi: float) -> np.ndarray:
    """Pooled V values over valid (path, time) pairs in [t_lo, t_hi]."""
    idx = np.flatnonzero((ensemble.times >= t_lo) & (ensemble.times <= t_hi))
    if idx.size == 0:
        return np.array([])
    vals = reference_self_values(V, ensemble.states[:, idx])  # (N, W)
    alive = idx[None, :] < ensemble.valid_counts[:, None]
    return vals[alive]


def reference_run_experiment(exp: NssExperiment
                   ) -> tuple[GainCurve, list[TrajectoryEnsemble]]:
    intensities, quants, blowups, ensembles = [], [], [], []
    for j, schedule in enumerate(exp.schedule_family):
        ens = reference_simulate_ensemble(exp.dynamics, schedule, exp.x0, exp.dt, exp.T,
                                exp.N, exp.master_seed + j,
                                store_every=exp.store_every)
        ensembles.append(ens)
        intensities.append(sup_noise_intensity(schedule, 0.0, exp.T))
        pooled = reference_tail_window_values(ens, exp.V, exp.T / 2.0,
                                              ens.times[-1])  # T's record
        quants.append(float(np.quantile(pooled, 1.0 - exp.epsilon))
                      if pooled.size else np.nan)
        blowups.append(float(np.mean(ens.exited)))
    curve = GainCurve(intensities=np.array(intensities),
                      tail_quantiles=np.array(quants),
                      blowup_fractions=np.array(blowups))
    return curve, ensembles


def reference_exceedance_fraction(ensemble: TrajectoryEnsemble, V: SizeFunction,
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
    vals = reference_self_values(V, ensemble.states)  # (N, R)
    v0 = vals[:, 0]
    try:
        bmat = np.asarray(bound(v0[:, None], ensemble.times[None, idx]),
                          dtype=float)
        bmat = np.broadcast_to(bmat, (len(ensemble.states), idx.size))
    except (TypeError, ValueError):  # a scalar-only bound, e.g. math.exp
        bmat = np.array([[bound(float(a), float(ensemble.times[i]))
                          for i in idx] for a in v0])
    alive = idx[None, :] < ensemble.valid_counts[:, None]
    over = (vals[:, idx] > bmat) & alive
    dead_in_window = ensemble.exited & ~alive.all(axis=1)
    exceed = over.any(axis=1) | dead_in_window
    return float(exceed.mean())


def reference_inss_accumulation_check(ensemble: TrajectoryEnsemble,
                                      V: SizeFunction,
                                      gamma: ScalarClassFunction,
                                      schedule: CovarianceSchedule,
                                      beta_hat: Callable[[np.ndarray,
                                                          np.ndarray],
                                                         np.ndarray],
                                      epsilon: float = 0.05
                                      ) -> AccumulationReport:
    """Check V(t) <= beta_hat(V0, t) + integral of gamma(intensity) ds.

    The integral gain is a left Riemann sum on the dt grid, step by step:
    the sum over steps k before t of gamma(|Sigma(t_k) Sigma(t_k)^T|) dt,
    with Sigma(t_k) read from the schedule's pieces; violation is
    per-path supremum over the whole horizon.
    """
    times, dt = ensemble.times, ensemble.dt
    t = np.arange(int(round(times[-1] / dt))) * dt
    sigmas = schedule.sigmas[np.searchsorted(schedule.starts, t, "right") - 1]
    inten = np.array([np.linalg.norm(s @ s.T, 2) for s in sigmas])
    g = np.asarray(gamma(inten), dtype=float)
    integral = np.concatenate([[0.0], np.cumsum(g * dt)])[
        np.rint(times / dt).astype(int)]

    def bound(v0, t):
        return np.asarray(beta_hat(v0, t)) + np.interp(t, times, integral)

    frac = reference_exceedance_fraction(ensemble, V, bound)
    return AccumulationReport(violation_fraction=frac, epsilon=epsilon,
                              integral_gain_final=float(integral[-1]))


@dataclass(frozen=True)
class ReferenceSupermartingaleReport:
    """Mean-drift diagnostic of V along ensemble segments outside the
    recurrence set.  ``flags`` lists recorded-step indices where the mean
    of V over outside paths increased by more than two Monte Carlo
    standard errors; steps with fewer than ``min_population`` outside
    paths are not tested."""

    times: np.ndarray
    flags: list

    @property
    def clean(self) -> bool:
        return not self.flags


def reference_supermartingale_diagnostic(
        ensemble: TrajectoryEnsemble, V: SizeFunction, threshold: float,
        min_population: int = 10) -> ReferenceSupermartingaleReport:
    if len(ensemble.states) < 1:
        raise ValueError("empty ensemble")
    vals = reference_self_values(V, ensemble.states)  # (N, R)
    R = vals.shape[1]
    # mask out recorded entries at or past each path's exit
    alive = np.arange(R)[None, :] < ensemble.valid_counts[:, None]
    flags = []
    for i in range(R - 1):
        mask = alive[:, i] & alive[:, i + 1] & (vals[:, i] > threshold)
        count = int(mask.sum())
        if count < max(min_population, 1):
            continue
        d = vals[mask, i + 1] - vals[mask, i]
        se = d.std(ddof=1) / np.sqrt(count) if count > 1 else np.inf
        if d.mean() > 2.0 * se:
            flags.append(i)
    return ReferenceSupermartingaleReport(times=ensemble.times[:-1],
                                          flags=flags)


def reference_ou_moments(ens, T):
    """The ou-sanity reductions of the dense route: the windowed second
    moment and the per-time mean square."""
    window = (max(0.0, T - 25.0), T)
    idx = (ens.times >= window[0]) & (ens.times <= window[1])
    second_moment = float(np.mean(ens.states[:, idx, 0] ** 2))
    return second_moment, np.mean(ens.states[:, :, 0] ** 2, axis=0)


# ------------------------------------------------------------------ cases
#
# Apart from the one-tile escaper, N is a multiple of no noise tile used
# below: the default tiles hold 327 (scalar), 163 (diagonal) or 65 (LQR)
# paths, the small ones 17 (m = 1) or 8 (m = 2).

def quadratic_case(diag, sigmas=(0.1, 0.2, 0.4), N=350, T=4.0):
    obj = quadratic_objective(np.diag(diag), np.zeros(len(diag)))
    model = build_overdamped(OverdampedConfig(objective=obj))
    V = objective_size_function(obj)
    schedules = [CovarianceSchedule.constant(s * np.eye(len(diag)), T)
                 for s in sigmas]
    exp = NssExperiment(dynamics=model, V=V, schedule_family=schedules,
                        x0=np.asarray(obj.minimizer) + 1.0, N=N, dt=1e-2,
                        T=T, master_seed=7, store_every=3)
    bounds = [lambda v0, t, g=10.0 * s**2: 1.1 * v0 * np.exp(-2.0 * t) + g
              for s in sigmas]
    return exp, bounds


def lqr_case(sigmas=(0.05, 0.5, 1.6, 5.0, 50.0), N=131, T=2.0):
    # the top intensities cross the stability boundary: exits before and
    # inside the tail window
    problem = LqrProblem(A=np.eye(1), F=np.eye(1), Q=np.eye(1), R=np.eye(1))
    profile = solve_riccati(problem, K0=np.array([[2.0]]))
    obj = lqr_objective(problem, profile)
    model = build_overdamped(OverdampedConfig(objective=obj))
    V = objective_size_function(obj)
    schedules = [gain_noise_schedule(np.array([[s]]), 1, T) for s in sigmas]
    exp = NssExperiment(dynamics=model, V=V, schedule_family=schedules,
                        x0=vec_gain(profile.Kstar), N=N, dt=1e-3, T=T,
                        master_seed=15, store_every=20)
    bounds = [lambda v0, t, g=s**2: v0 * np.exp(-t) + g for s in sigmas]
    return exp, bounds


def escaper_case(N=120, T=2.0):
    # every path leaves the domain before the tail window: NaN quantiles
    model = DiffusionModel(state_dim=1, noise_dim=1,
                           drift=lambda z: np.ones_like(z),
                           domain_test=lambda z: z[..., 0] < 0.5)
    exp = NssExperiment(
        dynamics=model, V=half_norm_squared(),
        schedule_family=[CovarianceSchedule.constant([[s]], T)
                         for s in (0.1, 0.2)],
        x0=np.zeros(1), N=N, dt=1e-2, T=T, master_seed=1, store_every=3)
    return exp, [lambda v0, t: v0 + 1.0] * 2


def rounded_case(N=120, T=0.3):
    # three steps of 0.1 end at 0.30000000000000004 > T, and paths drift
    # out of the domain, most of them at that last record
    model = DiffusionModel(state_dim=1, noise_dim=1,
                           drift=lambda z: np.ones_like(z),
                           domain_test=lambda z: z[..., 0] < 0.25)
    exp = NssExperiment(
        dynamics=model, V=half_norm_squared(),
        schedule_family=[CovarianceSchedule.constant([[s]], T)
                         for s in (0.05, 0.1)],
        x0=np.zeros(1), N=N, dt=0.1, T=T, master_seed=2, store_every=1)
    return exp, [lambda v0, t: v0 + 1.0] * 2


CASES = {"scalar": lambda: quadratic_case([1.0]),
         "diagonal": lambda: quadratic_case([1.0, 2.0]),
         "lqr": lqr_case, "escaper": escaper_case, "rounded": rounded_case}


@pytest.fixture(params=[False, True], ids=["default-tiles", "small-tiles"])
def tiles(request, monkeypatch):
    if request.param:
        # 64-step chunks and 17-path tiles (m = 1) or 8 (m = 2)
        monkeypatch.setattr(sde, "_SLAB_ELEMS", 1)
        monkeypatch.setattr(sde, "_TILE_ELEMS", 1100)
    return request.param


def dense_pair(exp, j):
    """The j-th ensemble of the sweep from the reference and from the
    current dense route."""
    args = (exp.dynamics, exp.schedule_family[j], exp.x0, exp.dt, exp.T,
            exp.N, exp.master_seed + j)
    return (reference_simulate_ensemble(*args, store_every=exp.store_every),
            simulate_ensemble(*args, store_every=exp.store_every))


# ------------------------------------------------------------------ tests

@pytest.mark.parametrize("case", sorted(CASES))
def test_gain_curve_matches_dense_route(case, tiles):
    exp, bounds = CASES[case]()
    # every case runs as one batch, so its blocks meet the reference's
    # separate ensembles here
    family = exp.schedule_family
    assert nssmc._batches(exp.N, len(family), sde.stackable(family)) == [
        (0, exp.N * len(family))]
    ref, ensembles = reference_run_experiment(exp)
    ref_fracs = [reference_exceedance_fraction(e, exp.V, b)
                 for e, b in zip(ensembles, bounds)]
    curve = run_experiment(exp, bounds)
    for got, want in ((curve.intensities, ref.intensities),
                      (curve.tail_quantiles, ref.tail_quantiles),
                      (curve.blowup_fractions, ref.blowup_fractions),
                      (curve.exceedance_fractions, np.array(ref_fracs))):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want, equal_nan=True)
    if case == "escaper":
        assert np.isnan(ref.tail_quantiles[0])
        assert (ref.blowup_fractions == 1.0).all()
    if case == "rounded":
        # the window ends at T's record, which lies past T: some paths
        # are valid there and some leave there
        for ens in ensembles:
            R = ens.times.size
            assert ens.times[-1] > exp.T
            assert (ens.valid_counts == R).any()
            assert (ens.valid_counts == R - 1).any()
    if case != "lqr":  # the LQR sweep is the slow one
        plain = run_experiment(exp)
        assert plain.exceedance_fractions is None
        assert np.array_equal(plain.tail_quantiles, ref.tail_quantiles,
                              equal_nan=True)
    else:
        fr = ref.blowup_fractions
        assert fr[0] == 0.0 and 0.0 < fr[3] < 1.0 and fr[-1] > 0.9
        # some paths die inside the tail window, after their first entry
        ens = ensembles[3]
        first = np.flatnonzero(ens.times >= exp.T / 2.0)[0]
        inside = (ens.valid_counts > first) & (ens.valid_counts
                                               < ens.times.size)
        assert inside.any()
        assert 0.0 < min(ref_fracs) and max(ref_fracs) > 0.9


def test_gain_curve_needs_one_bound_per_schedule():
    exp, bounds = quadratic_case([1.0])
    with pytest.raises(ValueError):
        run_experiment(exp, bounds[:2])


def test_batch_across_ensembles_matches_dense_route(tiles, monkeypatch):
    # 525 rows a batch: the first holds ensemble 0 and paths [0, 175) of
    # ensemble 1, the second the rest of ensemble 1 and ensemble 2
    exp, bounds = quadratic_case([1.0, 2.0])
    monkeypatch.setattr(nssmc, "_BATCH_ROWS", 525)
    family = exp.schedule_family
    assert nssmc._batches(exp.N, len(family), sde.stackable(family)) == [
        (0, 525), (525, 1050)]
    ref, ensembles = reference_run_experiment(exp)
    curve = run_experiment(exp, bounds)
    ref_fracs = [reference_exceedance_fraction(e, exp.V, b)
                 for e, b in zip(ensembles, bounds)]
    for got, want in ((curve.tail_quantiles, ref.tail_quantiles),
                      (curve.blowup_fractions, ref.blowup_fractions),
                      (curve.exceedance_fractions, np.array(ref_fracs))):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    # each block of the first batch is its rows of its ensemble run alone
    paths = [range(0, 350), range(0, 175)]
    stack = simulate_ensemble(exp.dynamics, family[:2], exp.x0, exp.dt,
                              exp.T, paths, [exp.master_seed,
                                             exp.master_seed + 1],
                              store_every=exp.store_every)
    rows = 0
    for ens, p in zip(ensembles, paths):
        block = slice(rows, rows + len(p))
        for name in ("states", "valid_counts", "exited"):
            assert np.array_equal(getattr(stack, name)[block],
                                  getattr(ens, name)[p.start:p.stop])
        rows += len(p)


@pytest.mark.parametrize("case", ["scalar", "lqr"])
def test_exceedance_matches_dense_route(case, tiles):
    exp, _ = CASES[case]()
    exp = NssExperiment(**{**exp.__dict__, "T": 2.0, "schedule_family":
                           exp.schedule_family[-2:]})
    times = record_times(exp.dt, exp.T, exp.store_every)
    windows = [None, (0.5, 1.5), (1.0, 2.0), (3.0, 4.0)]
    bounds = [lambda v0, t: 0.8 * v0 * np.exp(-t) + 0.02,
              lambda v0, t: np.where(t < 1.0, v0 + 0.01, 0.05)]
    pairs = [(b, w) for b in bounds for w in windows]
    for j in range(len(exp.schedule_family)):
        ref_ens, ens = dense_pair(exp, j)
        for name in ("times", "states", "valid_counts", "exited", "blowup"):
            assert np.array_equal(getattr(ens, name), getattr(ref_ens, name))
        live = [Exceedance(exp.V, b, times, exp.N, w) for b, w in pairs]
        reduced = simulate_ensemble(
            exp.dynamics, exp.schedule_family[j], exp.x0, exp.dt, exp.T,
            exp.N, exp.master_seed + j, store_every=exp.store_every,
            reducers=live)
        assert reduced.states.shape == (exp.N, 0, exp.dynamics.state_dim)
        for (bound, window), red in zip(pairs, live):
            want = reference_exceedance_fraction(ref_ens, exp.V, bound,
                                                 window)
            assert replayed_exceedance(ens, exp.V, bound, window) == want
            assert red.fraction() == want


def test_tail_window_values_match_dense_route():
    exp, _ = lqr_case(sigmas=(0.5, 5.0))
    times = record_times(exp.dt, exp.T, exp.store_every)
    windows = [(1.0, 2.0), (0.3, 0.9), (5.0, 6.0)]
    for j in range(2):
        ref_ens, ens = dense_pair(exp, j)
        live, replayed = [[WindowValues(lambda z: self_values(exp.V, z),
                                        times, exp.N, lo, hi)
                           for lo, hi in windows] for _ in range(2)]
        simulate_ensemble(exp.dynamics, exp.schedule_family[j], exp.x0,
                          exp.dt, exp.T, exp.N, exp.master_seed + j,
                          store_every=exp.store_every, reducers=live)
        replay(ens, replayed)
        for (lo, hi), reducer, again in zip(windows, live, replayed):
            want = reference_tail_window_values(ref_ens, exp.V, lo, hi)
            # the replayed window read path by path, as the dense route was
            alive = again.index[None, :] < ens.valid_counts[:, None]
            got = again.values.T[alive]
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert np.array_equal(reducer.values, again.values)
            # the reducer counts each path's valid records itself
            assert np.array_equal(reducer.valid, alive.sum(axis=1))
            # the same values, record by record instead of path by path
            pooled = reducer.valid_values()
            assert np.array_equal(np.sort(pooled), np.sort(want))
            q = np.quantile(want, 0.95) if want.size else np.nan
            assert np.array_equal(reducer.quantile(0.95), q, equal_nan=True)


def expanding_case(N=150, T=3.0):
    # V grows until paths leave the box |z| < 2: flagged records, and
    # exits that shrink the outside population over time
    model = DiffusionModel(state_dim=1, noise_dim=1, drift=lambda z: 0.5 * z,
                           domain_test=lambda z: np.abs(z[:, 0]) < 2.0)
    return (model, CovarianceSchedule.constant(np.array([[0.3]]), T),
            np.linspace(-1.0, 1.0, N)[:, None].copy(), 1e-2, T, N, 11)


@pytest.mark.parametrize("case", ["lqr", "expanding"])
def test_supermartingale_matches_dense_route(case):
    if case == "lqr":
        exp, _ = lqr_case(sigmas=(5.0,))
        args = (exp.dynamics, exp.schedule_family[0], exp.x0, exp.dt, exp.T,
                exp.N, exp.master_seed)
        V, store = exp.V, exp.store_every
    else:
        args, V, store = expanding_case(), half_norm_squared(), 5
    ens = simulate_ensemble(*args, store_every=store)
    assert ens.exited.any() and not ens.exited.all()
    settings = [(th, pop) for th in (0.0, 0.05, 0.5) for pop in (1, 10, 100)]
    live = [Supermartingale(V, th, pop) for th, pop in settings]
    simulate_ensemble(*args, store_every=store, reducers=live)
    flagged = 0
    for (th, pop), red in zip(settings, live):
        want = reference_supermartingale_diagnostic(ens, V, th, pop)
        assert red.flags == want.flags, (th, pop)
        flagged += len(want.flags)
    assert flagged > 0


def ou_config(N, T, dt, store):
    return SimpleNamespace(sigma=0.5, N=N, T=T, dt=dt, store_every=store)


@pytest.mark.parametrize("N, T, store", [(1000, 30.0, 5), (301, 8.0, 7)])
def test_ou_moments_match_dense_route(N, T, store, tiles, tmp_path):
    obj = quadratic_objective(np.array([[1.0]]), np.zeros(1))
    model = build_overdamped(OverdampedConfig(objective=obj))
    dt, seed = 1e-2, 2024
    schedule = CovarianceSchedule.constant(np.array([[0.5]]), T)
    ref_ens = reference_simulate_ensemble(model, schedule, np.zeros(1), dt,
                                          T, N, seed, store_every=store)
    want_second, want_means = reference_ou_moments(ref_ens, T)

    times = record_times(dt, T, store)
    square = lambda z: z[:, 0] ** 2
    means = PathMeans(square, times.size)
    tail = WindowValues(square, times, N, max(0.0, T - 25.0), T)
    simulate_ensemble(model, schedule, np.zeros(1), dt, T, N, seed,
                      store_every=store, reducers=[means, tail])
    assert np.array_equal(means.means, want_means)
    assert float(np.mean(tail.values)) == want_second
    # the window keeps the dense array's memory order (advanced indexing
    # makes it F-ordered), so any sum over it adds in the same order
    idx = (ref_ens.times >= max(0.0, T - 25.0)) & (ref_ens.times <= T)
    dense = ref_ens.states[:, idx, 0] ** 2
    assert dense.T.flags.c_contiguous and tail.values.flags.c_contiguous
    assert np.array_equal(tail.values, dense.T)

    # the shipped experiment writes the same bytes as the dense route
    lines = cli._exp_ou_sanity(ou_config(N, T, dt, store), tmp_path, seed, 1)
    cli._csv_table(tmp_path / "want.csv", ["t", "mean_square"],
                   zip(ref_ens.times.tolist(), want_means.tolist()))
    assert (tmp_path / "moments.csv").read_bytes() \
        == (tmp_path / "want.csv").read_bytes()
    assert lines[0][2].startswith(f"{want_second:.6g} vs ")


def test_decay_fit_means_match_dense_route(tiles):
    obj = quadratic_objective(np.array([[1.0]]), np.zeros(1))
    model = build_overdamped(OverdampedConfig(objective=obj))
    V = objective_size_function(obj)
    quiet = CovarianceSchedule.constant(np.zeros((1, 1)), 5.0)
    args = (model, quiet, np.ones(1), 1e-3, 5.0, 201, 1017)
    ref_ens = reference_simulate_ensemble(*args, store_every=25)
    ens = simulate_ensemble(*args, store_every=25)

    # the mean of V per record of a quiet ensemble, replayed or live
    ref_mean = reference_self_values(V, ref_ens.states).mean(axis=0)
    replayed = PathMeans(lambda z: self_values(V, z), ens.times.size)
    replay(ens, [replayed])
    live = PathMeans(lambda z: self_values(V, z), ens.times.size)
    simulate_ensemble(*args, store_every=25, reducers=[live])
    assert np.array_equal(replayed.means, ref_mean)
    assert np.array_equal(live.means, ref_mean)


def test_run_experiment_memory_below_one_dense_ensemble(monkeypatch):
    obj = quadratic_objective(np.array([[1.0]]), np.zeros(1))
    model = build_overdamped(OverdampedConfig(objective=obj))
    V = objective_size_function(obj)
    N, T, dt = 4000, 5.0, 1e-3
    exp = NssExperiment(
        dynamics=model, V=V,
        schedule_family=[CovarianceSchedule.constant(np.array([[0.2]]), T)],
        x0=np.ones(1), N=N, dt=dt, T=T, master_seed=5, store_every=1)
    bounds = [lambda v0, t: 1.1 * v0 * np.exp(-2.0 * t) + 0.4]
    dense_bytes = N * record_times(dt, T, 1).size * 1 * 8
    # tracemalloc does not see the sweep's shared pages, so add up every
    # array allocated in them
    shared_bytes, shared = [], nssmc._shared

    def counted(shape, dtype):
        a = shared(shape, dtype)
        shared_bytes.append(a.nbytes)
        return a

    monkeypatch.setattr(nssmc, "_shared", counted)
    tracemalloc.start()
    try:
        curve = run_experiment(exp, bounds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(curve.tail_quantiles).all()
    assert sum(shared_bytes) >= N * 8 * (record_times(dt, T, 1).size // 2)
    assert peak + sum(shared_bytes) < dense_bytes, (peak, shared_bytes,
                                                    dense_bytes)
