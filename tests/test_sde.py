"""Unit tests for the diffusion simulator."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nsslab import lqr, sde
from nsslab.langevin import (OverdampedConfig, UnderdampedConfig,
                             build_overdamped, build_underdamped)
from nsslab.lyapcert import generator_apply
from nsslab.nssmc import Exceedance, NssExperiment, WindowValues
from nsslab.objectives import quadratic_objective
from nsslab.sde import (BLOWUP_LIMIT, CovarianceSchedule, DiffusionModel,
                        derive_path_seeds, simulate_ensemble, simulate_path, sup_noise_intensity)

from helpers import half_norm_squared, piecewise
from test_langevin import scalar_lqr_scheduled
from test_lqr_reference import boundary_gains


def reference_path_seed(master_seed, k):
    """Path k's seed, straight from numpy's SeedSequence."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(k),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _plain(state):
    """A bit generator's state dict with its arrays as lists."""
    return {k: _plain(v) if isinstance(v, dict)
            else v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in state.items()}


def linear_model(rate=1.0, n=1):
    return DiffusionModel(state_dim=n, noise_dim=n,
                          drift=lambda z: -rate * z,
                          equilibrium=np.zeros(n))


class TestDiffusionModel:
    def test_equilibrium_drift_checked(self):
        with pytest.raises(ValueError):
            DiffusionModel(state_dim=1, noise_dim=1,
                           drift=lambda z: -z + 1.0,
                           equilibrium=np.zeros(1))

    def test_identity_diffusion_default(self):
        # with V = |x|^2/2 the noise term 1/2 tr(Theta^T g^T g Theta) is
        # sigma^2 n / 2 = sigma^2 exactly when g is the 2x2 identity
        m = linear_model(n=2)
        V = half_norm_squared()
        x = np.array([[1.0, 2.0], [-0.5, 0.0], [0.0, 0.0]])
        Theta = np.array([[0.3, 0.0], [0.0, 0.3]])
        out = generator_apply(V, m, x, Theta)
        assert np.allclose(out, -np.sum(x * x, axis=1) + 0.09, rtol=0,
                           atol=1e-15)
        skew = np.array([[0.3, 0.4], [-0.1, 0.2]])
        out = generator_apply(V, m, x, skew)
        assert np.allclose(out, -np.sum(x * x, axis=1)
                           + 0.5 * np.sum(skew * skew), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n, m, G, error", [
        (3, 1, np.ones((2, 1)), r"noise map shape \(2, 1\) != \(3, 1\)"),
        (3, 1, np.ones(3), r"noise map shape \(3,\) != \(3, 1\)"),
        (2, 1, [[1.0], [np.nan]], "not finite"),
        (2, 1, [[np.inf], [0.0]], "not finite"),
        (2, 1, None, "identity noise map requires")])
    def test_bad_noise_map_rejected(self, n, m, G, error):
        with pytest.raises(ValueError, match=error):
            DiffusionModel(state_dim=n, noise_dim=m, drift=lambda z: -z,
                           noise_map=G)

    def test_noise_map_is_a_constant_copy(self):
        G = np.array([[0.0], [1.0]])
        m = DiffusionModel(state_dim=2, noise_dim=1, drift=lambda z: -z,
                           noise_map=G)
        G[1, 0] = 5.0
        assert m.noise_map.tolist() == [[0.0], [1.0]]
        with pytest.raises(ValueError):
            m.noise_map[0, 0] = 1.0


class TestCovarianceSchedule:
    def test_constant_factory(self):
        s = CovarianceSchedule.constant(0.3 * np.eye(2), horizon=10.0)
        assert s.starts.tolist() == [0.0]
        assert s.sigmas.shape == (1, 2, 2)
        assert np.array_equal(s.sigmas[0], 0.3 * np.eye(2))
        with pytest.raises(ValueError):
            s.sigmas[0, 0, 0] = 1.0

    def test_nonsquare_sigma_rejected(self):
        with pytest.raises(ValueError):
            CovarianceSchedule.constant(np.ones((2, 3)), horizon=1.0)

    @pytest.mark.parametrize("starts", [[0.1], [0.0, 0.5, 0.5],
                                        [0.0, 0.6, 0.3], [0.0, 1.0]])
    def test_starts_must_ascend_from_zero_below_horizon(self, starts):
        with pytest.raises(ValueError, match="ascend from 0"):
            CovarianceSchedule(starts, [np.eye(1)] * len(starts), 1.0)

    def test_one_sigma_per_start(self):
        with pytest.raises(ValueError, match="for each of 2 starts"):
            CovarianceSchedule([0.0, 0.5], [np.eye(1)] * 3, 1.0)

    def test_large_rank_deficient_sigma_accepted(self):
        # Sigma Sigma^T is PSD for every real Sigma, though rounding gives
        # these rank-1 covariances eigenvalues slightly below zero
        rng = np.random.default_rng(3)
        for scale in 10.0 ** np.arange(8):
            for _ in range(20):
                u, v = rng.standard_normal((2, 3)) * scale
                S = np.outer(u, v)
                CovarianceSchedule.constant(S, horizon=1.0)
                CovarianceSchedule([0.0, 1.0], [S, 2.0 * S], horizon=2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sigma_rejected(self, bad):
        S = np.eye(2)
        S[0, 1] = bad
        with pytest.raises(ValueError, match="not finite"):
            CovarianceSchedule.constant(S, horizon=1.0)
        # a schedule that turns non-finite inside the horizon
        with pytest.raises(ValueError, match="at t = 0.75 is not finite"):
            piecewise(lambda t: S if t > 0.5 else np.eye(2), 0.25, 1.0)

    def test_sigma_non_finite_between_probe_times_rejected(self):
        # non-finite on [0.3, 0.4) only: finite at 0, 0.25, 0.5, 0.75 and
        # 1, where a schedule used to be probed
        S = np.full((1, 1), np.nan)
        with pytest.raises(ValueError, match="at t = 0.3 is not finite"):
            CovarianceSchedule([0.0, 0.3, 0.4], [np.eye(1), S, np.eye(1)],
                               horizon=1.0)

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ValueError):
            CovarianceSchedule.constant(np.eye(1), horizon=0.0)

    @pytest.mark.parametrize("n, S", [(2, [[0.5]]), (1, np.eye(2))])
    def test_sigma_of_the_wrong_shape_rejected(self, n, S):
        # a 1x1 Sigma would broadcast over a 2-D model as sigma I
        m = linear_model(n=n)
        shapes = rf"Sigma shape \({len(S)}, {len(S)}\) != \({n}, {n}\)"
        for schedule in (CovarianceSchedule.constant(S, 1.0),
                         piecewise(lambda t: (1.0 + t) * np.array(S), 0.1,
                                   1.0)):
            with pytest.raises(ValueError, match=shapes):
                simulate_path(m, schedule, np.zeros(n), 0.1, 1.0, 0)
            with pytest.raises(ValueError, match=shapes):
                simulate_ensemble(m, schedule, np.zeros(n), 0.1, 1.0, 4, 0)

    @pytest.mark.parametrize("later", [0.3 * np.eye(2),
                                       0.3 * np.ones((2, 2))])
    def test_sigma_that_changes_shape_rejected(self, later):
        # I_1 before t = 0.5 and a 2x2 Sigma after are no (P, m, m) array
        with pytest.raises(ValueError):
            piecewise(lambda t: later if t >= 0.5 else np.eye(1), 0.1, 1.0)

    def test_piece_start_off_the_dt_grid_rejected(self):
        s = CovarianceSchedule([0.0, 0.25], [np.eye(1), 2.0 * np.eye(1)],
                               horizon=1.0)
        for run in (lambda: simulate_path(linear_model(), s, np.zeros(1),
                                          0.1, 1.0, 0),
                    lambda: simulate_ensemble(linear_model(), [s, s],
                                              np.zeros(1), 0.1, 1.0, 4,
                                              [0, 1])):
            with pytest.raises(ValueError) as info:
                run()
            assert str(info.value) == ("piece start 0.25 is not a whole "
                                       "number of dt = 0.1 steps")
        # on a grid where 0.25 is a step it runs
        simulate_path(linear_model(), s, np.zeros(1), 0.05, 1.0, 0)

    def test_sup_intensity_time_varying(self):
        # Sigma = sin(t)^2 held on each step: Sigma Sigma^T = sin(k dt)^4,
        # and the supremum is the largest of them, exactly
        dt = 1e-2
        s = piecewise(lambda t: np.array([[np.sin(t) ** 2]]), dt, 10.0)
        square = np.array([np.sin(t) ** 2 for t in np.arange(1000) * dt])
        quartic = square * square
        assert sup_noise_intensity(s, 0.0, 10.0) == quartic.max()
        # [t_lo, t_hi) meets the pieces from the one holding t_lo up to
        # the last one starting before t_hi
        assert sup_noise_intensity(s, 2.005, 3.0) == quartic[200:300].max()
        assert sup_noise_intensity(s, 4.0, 4.0) == quartic[400]

    def test_single_step_spike_reported_exactly(self):
        # a 5.0 spike on [0.3005, 0.3006), one step of dt = 1e-4, between
        # the points k / 999 of a 1,000-point grid on [0, 1]
        s = CovarianceSchedule([0.0, 0.3005, 0.3006],
                               [[[0.1]], [[5.0]], [[0.1]]], horizon=1.0)
        assert sup_noise_intensity(s, 0.0, 1.0) == 25.0
        assert sup_noise_intensity(s, 0.0, 0.3005) == 0.1 * 0.1
        assert sup_noise_intensity(s, 0.3006, 1.0) == 0.1 * 0.1
        exp = NssExperiment(dynamics=linear_model(), V=half_norm_squared(),
                            schedule_family=[
                                CovarianceSchedule.constant([[0.2]], 1.0), s],
                            x0=np.zeros(1), N=100, dt=1e-4, T=1.0,
                            master_seed=0)
        assert exp.intensities().tolist() == [0.2 * 0.2, 25.0]


class TestHorizon:
    """A run and a sup-intensity query stay within the schedule's horizon,
    with the 1e-9 (1 + T) slack of the time grid rule."""

    def test_past_the_horizon_rejected(self):
        s = CovarianceSchedule.constant(np.array([[0.5]]), horizon=1.0)
        long = CovarianceSchedule.constant(np.array([[0.7]]), horizon=5.0)
        for T, run in [
                (5.0, lambda: simulate_path(linear_model(), s, np.zeros(1),
                                            0.1, 5.0, 0)),
                (1.1, lambda: simulate_ensemble(linear_model(), s,
                                                np.zeros(1), 0.1, 1.1, 4, 0)),
                # one short schedule in a stack is enough
                (5.0, lambda: simulate_ensemble(linear_model(), [long, s],
                                                np.zeros(1), 0.1, 5.0, 4,
                                                [0, 1])),
                (5.0, lambda: sup_noise_intensity(s, 0.0, 5.0)),
                (1.0 + 3e-9, lambda: sup_noise_intensity(s, 0.5, 1.0 + 3e-9)),
                (5.0, lambda: NssExperiment(
                    dynamics=linear_model(), V=half_norm_squared(),
                    schedule_family=[s], x0=np.zeros(1), N=100, dt=0.1,
                    T=5.0, master_seed=0))]:
            with pytest.raises(ValueError) as info:
                run()
            assert str(info.value) == (f"t = {T:.12g} is past the "
                                       "schedule's horizon 1")

    def test_up_to_the_horizon_runs(self):
        s = CovarianceSchedule.constant(np.array([[0.5]]), horizon=1.0)
        assert sup_noise_intensity(s, 0.0, 1.0) == 0.25
        # within the slack of the time grid rule
        assert sup_noise_intensity(s, 0.0, 1.0 + 1e-9) == 0.25
        path = simulate_path(linear_model(), s, np.zeros(1), 0.1, 1.0, 0)
        assert path.times[-1] == 1.0
        # a run shorter than the schedule's horizon
        ens = simulate_ensemble(linear_model(), s, np.zeros(1), 0.1, 0.5, 4,
                                0)
        assert ens.times[-1] == 0.5
        exp = NssExperiment(dynamics=linear_model(), V=half_norm_squared(),
                            schedule_family=[s], x0=np.zeros(1), N=100,
                            dt=0.1, T=1.0, master_seed=0)
        assert exp.intensities().tolist() == [0.25]

    @pytest.mark.parametrize("n", [1, 7, 400, 1001])
    def test_horizon_of_n_steps(self, n):
        # a schedule built for T = n dt, as the benchmark's step probe
        # builds it, runs to that T
        dt = 1e-3
        s = CovarianceSchedule.constant(np.array([[0.5]]), n * dt)
        ens = simulate_ensemble(linear_model(), s, np.zeros(1), dt, n * dt,
                                2, 7, store_every=25)
        assert ens.times[-1] == n * dt


class TestDeterminism:
    def test_same_seed_same_paths(self):
        m = linear_model()
        s = CovarianceSchedule.constant(np.array([[0.5]]), horizon=1.0)
        a = simulate_ensemble(m, s, np.ones(1), 1e-2, 1.0, 16, 7)
        b = simulate_ensemble(m, s, np.ones(1), 1e-2, 1.0, 16, 7)
        assert np.array_equal(a.states, b.states)

    def test_different_seed_differs(self):
        m = linear_model()
        s = CovarianceSchedule.constant(np.array([[0.5]]), horizon=1.0)
        a = simulate_ensemble(m, s, np.ones(1), 1e-2, 1.0, 16, 7)
        b = simulate_ensemble(m, s, np.ones(1), 1e-2, 1.0, 16, 8)
        assert not np.array_equal(a.states, b.states)

    def test_path_seeds_distinct(self):
        seeds = set(derive_path_seeds(0, 0, 100).tolist())
        assert len(seeds) == 100

    @pytest.mark.parametrize("master", [0, 17, 2**32 - 1, 2**40 + 3])
    def test_path_seeds_match_seed_sequence(self, master):
        want = np.array([reference_path_seed(master, k)
                         for k in range(10**5)], dtype=np.uint64)
        got = derive_path_seeds(master, 0, 10**5)
        assert got.dtype == np.uint64 and np.array_equal(got, want)
        # a range off zero, up to the largest one-word spawn key
        top = [reference_path_seed(master, k) for k in range(2**32 - 3, 2**32)]
        assert derive_path_seeds(master, 2**32 - 3, 2**32).tolist() == top

    def test_path_seed_range_checked(self):
        with pytest.raises(ValueError):
            derive_path_seeds(-1, 0, 4)
        with pytest.raises(ValueError):
            derive_path_seeds(0, 2**32 - 1, 2**32 + 1)

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_path_key_gives_the_keyed_philox(self, seed):
        got = sde._normal_draws([seed])[0].__self__.bit_generator
        want = np.random.Philox(key=seed)
        assert _plain(got.state) == _plain(want.state)
        assert np.array_equal(np.random.Generator(got).standard_normal(1000),
                              np.random.Generator(want).standard_normal(1000))

    @pytest.mark.parametrize("seed", [-1, 2**64 + 5])
    def test_path_seed_wraps_to_64_bits(self, seed):
        m = linear_model()
        s = CovarianceSchedule.constant(np.array([[0.5]]), horizon=1.0)
        path = simulate_path(m, s, np.ones(1), 1e-2, 1.0, seed)
        # the reference keys Philox with seed & (2**64 - 1)
        ref = reference_simulate_batch(m, s, np.ones((1, 1)), 1e-2, 1.0,
                                       [seed], 1)
        assert np.array_equal(path.states, ref[1][0])

    def test_single_path_matches_ensemble_member(self):
        m = linear_model()
        s = CovarianceSchedule.constant(np.array([[0.5]]), horizon=1.0)
        ens = simulate_ensemble(m, s, np.ones(1), 1e-2, 1.0, 4, 3)
        # any ensemble member is reproducible in isolation through the
        # per-path seed derivation
        solo = simulate_path(m, s, np.ones(1), 1e-2, 1.0,
                             int(derive_path_seeds(3, 2, 3)[0]))
        assert np.array_equal(solo.states[:, 0], ens.states[2, :, 0])


class TestAccuracy:
    def test_noiseless_exponential_decay(self):
        m = linear_model()
        s = CovarianceSchedule.constant(np.zeros((1, 1)), horizon=1.0)
        p = simulate_path(m, s, np.ones(1), 1e-4, 1.0, 0)
        assert abs(p.states[-1, 0] - np.exp(-1.0)) <= 1e-3

    def test_stationary_variance(self):
        # dz = -z dt + sigma dW has stationary variance sigma^2/2
        sigma = 0.5
        m = linear_model()
        s = CovarianceSchedule.constant(np.array([[sigma]]), horizon=50.0)
        ens = simulate_ensemble(m, s, np.zeros(1), 1e-3, 50.0, 2000, 1,
                                store_every=50)
        idx = ens.times >= 25.0
        var = float(np.mean(ens.states[:, idx, 0] ** 2))
        assert abs(var - sigma**2 / 2.0) / (sigma**2 / 2.0) <= 0.1

    def test_forgets_noise_after_a_drop(self):
        # dz = -z dt + sigma(t) dW with sigma = 1 on [0, 5) and 0.2 on
        # [5, 10), from z = 0: the chain is Gaussian with the exact
        # Euler-Maruyama variance v_{k+1} = (1 - dt)^2 v_k + sigma_k^2 dt.
        # The mean of z^2 over N paths has standard error sqrt(2 / N) v_k,
        # and is close to normal (skewness sqrt(8 / N) = 0.045), so a
        # record misses by over 4.5 of them with probability 6.8e-6, and
        # one of the 20 records with probability at most 1.4e-4
        dt, T, N, every = 1e-2, 10.0, 4000, 50
        s = CovarianceSchedule([0.0, 5.0], [[[1.0]], [[0.2]]], horizon=T)
        ens = simulate_ensemble(linear_model(), s, np.zeros(1), dt, T, N, 0,
                                store_every=every)
        v = np.zeros(int(round(T / dt)) + 1)
        for k in range(v.size - 1):
            v[k + 1] = (1 - dt) ** 2 * v[k] + (1.0 if k < 500 else 0.04) * dt
        v = v[::every][1:]
        m2 = np.mean(ens.states[:, 1:, 0] ** 2, axis=0)
        z = (m2 - v) / (np.sqrt(2.0 / N) * v)
        assert np.abs(z).max() <= 4.5
        # the state forgets: the last variance is the low noise's level
        assert m2[-1] < 0.05 < 0.4 < m2[9]


class TestBlowupAndDomain:
    def test_blowup_flagged_and_frozen(self):
        m = DiffusionModel(state_dim=1, noise_dim=1,
                           drift=lambda z: z**3,
                           equilibrium=np.zeros(1))
        s = CovarianceSchedule.constant(np.zeros((1, 1)), horizon=10.0)
        ens = simulate_ensemble(m, s, np.full(1, 5.0), 1e-2, 10.0, 2, 0)
        assert ens.blowup.all()
        assert ens.exited.all()
        # frozen values stay below the recorded limit where valid
        for k in range(2):
            valid = ens.states[k, :ens.valid_counts[k]]
            assert np.all(np.abs(valid) <= BLOWUP_LIMIT)

    def test_domain_exit_recorded(self):
        m = DiffusionModel(state_dim=1, noise_dim=1,
                           drift=lambda z: np.ones_like(z),
                           domain_test=lambda z: z[..., 0] < 1.5)
        s = CovarianceSchedule.constant(np.zeros((1, 1)), horizon=5.0)
        ens = simulate_ensemble(m, s, np.zeros(1), 1e-2, 5.0, 1, 0)
        assert ens.exited[0] and not ens.blowup[0]
        assert ens.valid_counts[0] < ens.times.size


class TestStorageAndCsv:
    def test_store_every_thinning_keeps_final(self):
        m = linear_model()
        s = CovarianceSchedule.constant(np.zeros((1, 1)), horizon=1.0)
        p = simulate_path(m, s, np.ones(1), 1e-2, 1.0, 0, store_every=7)
        assert p.times[0] == 0.0
        assert abs(p.times[-1] - 1.0) <= 1e-12

    def test_invalid_args(self):
        m = linear_model()
        s = CovarianceSchedule.constant(np.zeros((1, 1)), horizon=1.0)
        with pytest.raises(ValueError):
            simulate_path(m, s, np.ones(1), -1e-2, 1.0, 0)
        with pytest.raises(ValueError):
            simulate_path(m, s, np.ones(1), 1e-2, 0.0, 0)

    @pytest.mark.parametrize("dt, T", [(0.3, 1.0), (1e-3, 50.0005),
                                       (0.07, 0.5)])
    def test_partial_last_step_rejected(self, dt, T):
        # the integrator used to run on to ceil(T/dt) steps, past T
        m = linear_model()
        s = CovarianceSchedule.constant(np.zeros((1, 1)), horizon=T)
        with pytest.raises(ValueError, match="whole number of dt"):
            simulate_path(m, s, np.ones(1), dt, T, 0)
        with pytest.raises(ValueError, match="whole number of dt"):
            simulate_ensemble(m, s, np.ones(1), dt, T, 3, 0)

    @pytest.mark.parametrize("dt, T, store, match", [
        (-1, 50, 25, "dt = -1"),
        (60, 50, 25, "dt = 60"),
        (1e-3, 50.0005, 25, "whole number of dt"),
        (1e-3, 50, 0, "store_every = 0")])
    def test_record_times_checks_the_grid(self, dt, T, store, match):
        # record_times(-1, 50, 25) used to fail inside range() with an
        # IndexError
        with pytest.raises(ValueError, match=match):
            sde.record_times(dt, T, store)

    @pytest.mark.parametrize("dt, T", [(0.1, 0.3), (1e-3, 50.0),
                                       (1e-2, 8.0), (0.1, 0.1)])
    def test_whole_step_grids_accepted(self, dt, T):
        # 0.3 / 0.1 and 8 / 0.01 are not integers in floating point
        m = linear_model()
        s = CovarianceSchedule.constant(np.zeros((1, 1)), horizon=T)
        p = simulate_path(m, s, np.ones(1), dt, T, 0, store_every=1000)
        assert p.times[-1] == round(T / dt) * dt
        assert abs(p.times[-1] - T) <= 1e-9 * (1.0 + T)


def reference_simulate_batch(model, schedule, x0s, dt, T, seeds, store_every):
    """The integrator as it was before step-major noise and the diagonal
    products (path-major noise buffer, a BLAS matmul for every Sigma),
    kept verbatim as the bit-for-bit reference."""
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
    exited = np.zeros(B, dtype=bool)
    blowup = np.zeros(B, dtype=bool)
    exit_steps = np.full(B, -1, dtype=np.int64)
    valid_counts = np.ones(B, dtype=np.int64)

    def sigma(t):  # Sigma of the piece that holds t
        return schedule.sigmas[np.searchsorted(schedule.starts, t,
                                               "right") - 1]

    sqdt = math.sqrt(dt)
    sig_const = None
    if len(schedule.starts) == 1:
        sig_const = np.asarray(sigma(0.0), dtype=float) * sqdt

    identity_g = model.noise_map is None
    chunk = max(64, min(nsteps, (1 << 24) // max(B * m, 1)))
    buf = np.empty((B, chunk, m))

    step = 0
    while step < nsteps:
        c = min(chunk, nsteps - step)
        # every path draws, exited or not, so streams stay aligned with
        # per-path runs
        for k in range(B):
            buf[k, :c] = gens[k].standard_normal((c, m))
        for j in range(c):
            t = step * dt
            sig = sig_const if sig_const is not None else \
                np.asarray(sigma(t), dtype=float) * sqdt
            w = buf[:, j, :] @ sig.T
            if identity_g:
                noise = w
            else:
                g = np.broadcast_to(model.noise_map, (B, n, m))
                noise = np.einsum("bnm,bm->bn", g, w)
            z_new = z + model.drift(z) * dt + noise
            step += 1

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

            if active.all():
                z = z_new
            else:
                z = np.where(active[:, None], z_new, z)

            ri = rec_lookup.get(step)
            if ri is not None:
                states[ri] = z
                valid_counts[active] = ri + 1

    times = np.array(rec_steps, dtype=float) * dt
    return (times, np.ascontiguousarray(states.transpose(1, 0, 2)),
            valid_counts, exited, blowup, exit_steps)


def _linear(n):
    return DiffusionModel(state_dim=n, noise_dim=n, drift=lambda z: -z,
                          equilibrium=np.zeros(n))


def _case_scalar():
    return _linear(1), CovarianceSchedule.constant([[0.5]], 1.0), [0.3]


def _case_diagonal():
    return (_linear(2), CovarianceSchedule.constant(np.diag([0.3, -0.7]), 1.0),
            [0.3, -0.2])


def _case_full():
    S = np.array([[0.5, 0.2], [-0.1, 0.4]])
    return _linear(2), CovarianceSchedule.constant(S, 1.0), [0.3, -0.2]


def _case_zero():
    return _linear(2), CovarianceSchedule.constant(np.zeros((2, 2)), 1.0), \
        [0.3, -0.2]


def _case_time_varying():
    # diagonal for t < 0.1, full afterwards
    def sigma(t):
        return np.array([[0.4 + 0.1 * math.sin(t), 0.2 * (t >= 0.1)],
                         [0.0, 0.3]])
    return _linear(2), piecewise(sigma, 1e-3, 1.0), [0.3, -0.2]


def _piecewise_diagonal(scale=1.0):
    # three diagonal pieces, from steps 0, 37 and 150 of dt = 1e-3: both
    # breakpoints fall inside the 64-step chunks of small_chunks
    return CovarianceSchedule(
        np.array([0, 37, 150]) * 1e-3,
        scale * np.array([np.diag([0.3, -0.7]), np.diag([1.1, 0.0]),
                          np.diag([-0.2, 0.5])]), 1.0)


def _case_piecewise_diagonal():
    return _linear(2), _piecewise_diagonal(), [0.3, -0.2]


def _case_zero_then_noisy():
    # a zero first piece does not make the run quiet
    return _linear(1), CovarianceSchedule(np.array([0, 37]) * 1e-3,
                                          [[[0.0]], [[0.5]]], 1.0), [0.3]


def _case_diffusion_field():
    # a constant 3x2 noise map under a full 2x2 Sigma
    G = np.array([[1.0, 0.5], [0.0, -0.3], [0.7, 1.0]])
    model = DiffusionModel(state_dim=3, noise_dim=2, drift=lambda z: -z,
                           noise_map=G, equilibrium=np.zeros(3))
    S = np.array([[0.5, 0.2], [-0.1, 0.4]])
    return model, CovarianceSchedule.constant(S, 1.0), [0.3, -0.2, 0.1]


def _momentum(noise):
    # the underdamped shape: noise enters the velocity through a [0; 1] block
    model = DiffusionModel(
        state_dim=2, noise_dim=1,
        drift=lambda z: np.stack([z[:, 1], -z[:, 0] - z[:, 1]], -1),
        noise_map=[[0.0], [1.0]], equilibrium=np.zeros(2))
    return model, CovarianceSchedule.constant([[noise]], 1.0), [0.3, -0.2]


def _case_underdamped():
    return _momentum(0.5)


def _case_domain_exit():
    model = DiffusionModel(state_dim=1, noise_dim=1,
                           drift=lambda z: np.ones_like(z),
                           domain_test=lambda z: z[..., 0] < 0.12)
    return model, CovarianceSchedule.constant([[0.5]], 1.0), [0.0]


def _case_blowup():
    model = DiffusionModel(state_dim=1, noise_dim=1, drift=lambda z: z**3,
                           equilibrium=np.zeros(1))
    return model, CovarianceSchedule.constant([[0.5]], 1.0), None


def _case_noise_blowup():
    # large noise: paths cross the blow-up limit one at a time, and the
    # frozen survivors' next proposals are mostly back inside it
    return _linear(1), CovarianceSchedule.constant([[1.5e12]], 1.0), [0.0]


def _case_zero_underdamped():
    return _momentum(0.0)


def _case_zero_domain_exit():
    model = DiffusionModel(state_dim=1, noise_dim=1,
                           drift=lambda z: np.ones_like(z),
                           domain_test=lambda z: z[..., 0] < 3.05)
    return model, CovarianceSchedule.constant([[0.0]], 1.0), None


def _case_zero_blowup():
    model, _, _ = _case_blowup()
    return model, CovarianceSchedule.constant([[0.0]], 1.0), None


def _case_lqr_domain_exit():
    # the overdamped policy-gradient flow of the scalar unit regulator:
    # noise carries gains across the stability boundary k = 1, where the
    # domain test a - f k < -HURWITZ_MARGIN fails
    problem = lqr.LqrProblem(A=[[1.0]], F=[[1.0]], Q=[[1.0]], R=[[1.0]])
    profile = lqr.solve_riccati(problem, K0=np.array([[2.0]]))
    model = build_overdamped(OverdampedConfig(
        objective=lqr.lqr_objective(problem, profile)))
    return model, CovarianceSchedule.constant([[3.0]], 1.0), [1.2]


def _case_exit_and_blowup():
    # large starts blow up upwards, small ones leave z > -0.5 downwards;
    # at B = 300 both happen on some of the same steps
    model = DiffusionModel(state_dim=1, noise_dim=1, drift=lambda z: z**3,
                           domain_test=lambda z: z[..., 0] > -0.5)
    return model, CovarianceSchedule.constant([[2.0]], 1.0), None


REFERENCE_CASES = {"scalar": _case_scalar, "diagonal": _case_diagonal,
                   "full": _case_full, "zero": _case_zero,
                   "time-varying": _case_time_varying,
                   "piecewise-diagonal": _case_piecewise_diagonal,
                   "zero-then-noisy": _case_zero_then_noisy,
                   "diffusion-field": _case_diffusion_field,
                   "domain-exit": _case_domain_exit, "blowup": _case_blowup,
                   "noise-blowup": _case_noise_blowup,
                   "underdamped": _case_underdamped,
                   "zero-underdamped": _case_zero_underdamped,
                   "zero-domain-exit": _case_zero_domain_exit,
                   "zero-blowup": _case_zero_blowup,
                   "lqr-domain-exit": _case_lqr_domain_exit,
                   "exit-and-blowup": _case_exit_and_blowup}


class TestReferenceIntegrator:
    """The step-major integrator equals the frozen reference bit for bit."""

    DT, T, STORE = 1e-3, 0.2, 7  # 200 steps

    def _run(self, case, B, small_chunks, monkeypatch):
        if small_chunks:
            # 64-step chunks (the floor): 64 + 64 + 64 + 8 steps, and
            # path tiles of 17 (m = 1) or 8 (m = 2) paths with a partial
            # last tile at B = 300
            monkeypatch.setattr(sde, "_SLAB_ELEMS", 1)
            monkeypatch.setattr(sde, "_TILE_ELEMS", 1100)
        model, schedule, x0 = REFERENCE_CASES[case]()
        if x0 is None:  # spread starts: exits at different steps
            x0s = np.linspace(3.0, 0.1, B)[:, None]
        else:
            x0s = np.tile(np.asarray(x0, dtype=float), (B, 1))
        seeds = np.array([reference_path_seed(11, k) for k in range(B)],
                         dtype=np.uint64)
        args = (model, schedule, x0s, self.DT, self.T, seeds, self.STORE)
        return sde._simulate_batch(*args), reference_simulate_batch(*args)

    @pytest.mark.parametrize("small_chunks", [False, True])
    @pytest.mark.parametrize("B", [1, 3, 300])
    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_matches_reference(self, case, B, small_chunks, monkeypatch):
        got, ref = self._run(case, B, small_chunks, monkeypatch)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
            if a.dtype == float:
                assert np.array_equal(np.signbit(a), np.signbit(b))

    @pytest.mark.parametrize("case", ["domain-exit", "blowup", "noise-blowup",
                                      "zero-domain-exit", "zero-blowup",
                                      "lqr-domain-exit", "exit-and-blowup"])
    def test_exits_fall_inside_chunks(self, case, monkeypatch):
        (_, _, valid, exited, blowup, steps), _ = self._run(
            case, 300, True, monkeypatch)
        assert exited.sum() >= 10
        assert blowup.any() == (not case.endswith("domain-exit"))
        assert np.any(steps[exited] % 64 != 0)
        assert np.unique(steps[exited] // 64).size >= 2
        assert np.any(valid < valid.max())

    @pytest.mark.parametrize("small_chunks", [False, True])
    def test_domain_exit_and_blowup_on_one_step(self, small_chunks,
                                                monkeypatch):
        (_, _, _, exited, blowup, steps), _ = self._run(
            "exit-and-blowup", 300, small_chunks, monkeypatch)
        both = np.intersect1d(steps[blowup], steps[exited & ~blowup])
        assert both.size >= 2

    def test_zero_sigma_draws_no_noise(self, monkeypatch):
        model, schedule, _ = REFERENCE_CASES["zero-underdamped"]()
        # from (-0.0, -0.0) the first step's z + drift(z) dt is -0.0, and
        # only the + 0.0 of the zero increment makes it +0.0; the sign
        # shows only in the record of that step
        x0s = np.array([[0.3, -0.2], [-0.0, -0.0]])
        seeds = derive_path_seeds(11, 0, 2)
        args = (x0s, self.DT, self.T, seeds, 1)
        ref = reference_simulate_batch(model, schedule, *args)

        def refuse(*args, **kwargs):
            raise AssertionError("a zero-Sigma run drew noise")

        monkeypatch.setattr(np.random, "Philox", refuse)
        monkeypatch.setattr(np, "einsum", refuse)
        got = sde._simulate_batch(model, schedule, *args)
        assert_bitwise(got[1], ref[1])
        assert not np.signbit(got[1][1, 1:]).any()
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)


EDGE = np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf,
                 np.nan, 1.5, -2.5])


def assert_bitwise(got, ref):
    assert got.shape == ref.shape
    assert np.array_equal(got, ref, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


class TestDiagonalProduct:
    """The elementwise product for diagonal Sigma is the matmul it replaces."""

    @pytest.mark.parametrize("s", [0.0, 0.4, -0.4])
    def test_scalar_sigma_edge_values(self, s):
        S = np.array([[s]])
        d = sde._diagonal(S)
        with np.errstate(invalid="ignore", over="ignore"):
            x = EDGE[:, None]
            assert_bitwise(sde._times_transpose(x, S, d), x @ S.T)
            for v in EDGE:  # one path: numpy's dot rather than gemv
                x = np.array([[v]])
                assert_bitwise(sde._times_transpose(x, S, d), x @ S.T)
            x = np.repeat(EDGE[:, None], 3, axis=1)[:, ::3]  # strided
            assert_bitwise(sde._times_transpose(x, S, d), x @ S.T)

    @pytest.mark.parametrize("m", [2, 3, 8])
    def test_diagonal_sigma_finite_values(self, m):
        rng = np.random.default_rng(m)
        d_in = rng.standard_normal(m)
        d_in[0], d_in[-1] = 0.0, -0.4
        S = np.diag(d_in)
        d = sde._diagonal(S)
        assert np.array_equal(d, d_in)
        finite = EDGE[np.isfinite(EDGE)]
        x = rng.standard_normal((301, 2 * m))
        mask = rng.random(x.shape) < 0.3
        x[mask] = rng.choice(finite, size=mask.sum())
        x[:len(finite), :m] = finite[:, None]
        with np.errstate(over="ignore"):
            for xs in (x[:, :m].copy(), x[:, ::2], x[:1, ::2],
                       x[:1, :m].copy()):
                assert_bitwise(sde._times_transpose(xs, S, d), xs @ S.T)

    def test_off_diagonal_entry_keeps_matmul(self):
        S = np.eye(3)
        S[2, 0] = 1e-300
        assert sde._diagonal(S) is None
        assert sde._diagonal(np.zeros((2, 2))) is not None


class TestMemory:
    def test_noise_slab_is_capped_at_400_steps(self):
        # B = 5,000 paths, m = 1, 1,000 noisy steps: 400-step chunks keep
        # the step-major slab at 16 MB, where the 32 MiB slab cap alone
        # allows 838-step chunks (33.5 MB)
        model = linear_model()
        s = CovarianceSchedule.constant(np.array([[0.5]]), horizon=1.0)
        tracemalloc.start()
        try:
            simulate_ensemble(model, s, np.zeros(1), 1e-3, 1.0, 5000, 1,
                              reducers=[lambda i, t, z, active: None])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25e6


class TestShards:
    """An ensemble run in path ranges: N = 2 * 4096 + 3 paths as [0, 4097)
    and [4097, 8195), the batches of a sweep's large ensemble."""

    N = 2 * 4096 + 3
    DT, T, STORE = 1e-2, 1.0, 5

    def _reducers(self, times):
        V = half_norm_squared()
        tail = WindowValues(V.value, times, self.N, self.T / 2, self.T)
        exceed = Exceedance(V, lambda v0, t: v0 * np.exp(-t) + 0.3, times,
                            self.N)
        return tail, exceed

    def test_shards_match_one_batch(self):
        # a box domain: paths exit in both shards
        model = DiffusionModel(state_dim=1, noise_dim=1, drift=lambda z: -z,
                               domain_test=lambda z: np.abs(z[:, 0]) < 1.2)
        schedule = CovarianceSchedule.constant(np.array([[1.0]]), self.T)
        x0s = np.linspace(-1.0, 1.0, self.N)[::-1, None].copy()
        times = sde.record_times(self.DT, self.T, self.STORE)
        seeds = np.array([reference_path_seed(7, k) for k in range(self.N)],
                         dtype=np.uint64)
        tail, exceed = self._reducers(times)
        _, _, valid, exited, blowup, exit_steps = sde._simulate_batch(
            model, schedule, x0s, self.DT, self.T, seeds, self.STORE,
            [tail, exceed])
        assert exited[:4097].any() and exited[4097:].any()
        assert not exited.all()
        got_tail, got_exceed = self._reducers(times)
        parts = []
        for lo, hi in ((0, 4097), (4097, self.N)):
            ens = simulate_ensemble(model, [schedule], x0s, self.DT, self.T,
                                    [range(lo, hi)], [7],
                                    store_every=self.STORE,
                                    reducers=[got_tail.shard(lo, hi),
                                              got_exceed.shard(lo, hi)])
            assert ens.states.shape == (hi - lo, 0, 1)
            assert np.array_equal(ens.times, times)
            parts.append(ens)
        for name, want in (("seeds", seeds), ("valid_counts", valid),
                           ("exited", exited), ("blowup", blowup),
                           ("exit_steps", exit_steps)):
            got = np.concatenate([getattr(e, name) for e in parts])
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(got_tail.valid, tail.valid)
        assert np.array_equal(got_tail.valid_values(), tail.valid_values())
        assert got_exceed.fraction() == exceed.fraction()


class TestStacks:
    """A stack integrates several ensembles as one batch; each block
    equals its ensemble's own run bit for bit."""

    DT, T, STORE, N = 1e-3, 0.2, 7, 40
    SIGMAS = (0.0, 0.3, 3.0)

    def _model(self):
        # the underdamped shape with a velocity box: only the noisiest
        # block reaches it
        model, _, _ = _momentum(0.0)
        return DiffusionModel(state_dim=2, noise_dim=1, drift=model.drift,
                              noise_map=model.noise_map,
                              domain_test=lambda z: np.abs(z[:, 1]) < 1.0)

    def _x0s(self):
        # from (-0.0, -0.0) the first step's z + drift(z) dt is -0.0, and
        # only the + 0.0 of the noise increment makes it +0.0
        x0s = np.tile([0.3, -0.2], (self.N, 1))
        x0s[::3] = -0.0
        return x0s

    @pytest.mark.parametrize("small_chunks", [False, True])
    def test_blocks_match_separate_runs(self, small_chunks, monkeypatch):
        # blocks of unequal length: paths [5, 40), [0, 12) and [3, 40) of
        # their ensembles, each equal to those rows of its ensemble's run
        if small_chunks:
            monkeypatch.setattr(sde, "_SLAB_ELEMS", 1)
            monkeypatch.setattr(sde, "_TILE_ELEMS", 1100)
        model, x0s = self._model(), self._x0s()
        schedules = [CovarianceSchedule.constant([[s]], self.T)
                     for s in self.SIGMAS]
        seeds = [11, 12, 13]
        paths = [range(5, 40), range(0, 12), range(3, 40)]
        stack = simulate_ensemble(model, schedules, x0s, self.DT, self.T,
                                  paths, seeds, store_every=self.STORE)
        alone = [simulate_ensemble(model, s, x0s, self.DT, self.T, self.N,
                                   seed, store_every=self.STORE)
                 for s, seed in zip(schedules, seeds)]
        assert stack.states.shape == (35 + 12 + 37, 30, 2)
        assert np.array_equal(stack.times, alone[0].times)
        for name in ("states", "seeds", "valid_counts", "exited", "blowup",
                     "exit_steps"):
            got = getattr(stack, name)
            want = np.concatenate([getattr(e, name)[p.start:p.stop]
                                   for e, p in zip(alone, paths)])
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
            if got.dtype == float:
                assert np.array_equal(np.signbit(got), np.signbit(want))
        # the quiet block keeps the +0.0 that its zero increment added to
        # the -0.0 starts of paths 6, 9, ..., 39
        assert not np.signbit(stack.states[1:35:3, 1:]).any()
        exits = [e.exited[p.start:p.stop].sum()
                 for e, p in zip(alone, paths)]
        assert exits[0] == exits[1] == 0 and 0 < exits[2] < 37

    def test_one_block_is_a_plain_call(self):
        model, x0s = self._model(), self._x0s()
        s = CovarianceSchedule.constant([[3.0]], self.T)
        args = (x0s, self.DT, self.T, self.N)
        a = simulate_ensemble(model, [s], *args, [4], store_every=self.STORE)
        b = simulate_ensemble(model, s, *args, 4, store_every=self.STORE)
        for name in ("states", "seeds", "valid_counts", "exited"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_reducers_see_every_row(self):
        model = linear_model()
        seen = []
        schedules = [CovarianceSchedule.constant([[s]], 0.1)
                     for s in (0.1, 0.2)]
        ens = simulate_ensemble(model, schedules, np.ones(1), 0.01, 0.1, 6,
                                [1, 2], reducers=[
                                    lambda i, t, z, active: seen.append(
                                        (z.shape, active.shape))])
        assert ens.states.shape == (12, 0, 1)
        assert set(seen) == {((12, 1), (12,))}

    @pytest.mark.parametrize("sigmas", [
        # a full Sigma
        lambda t: [[1.0, 0.1], [0.0, 1.0]],
        # diagonal, but with a piece from t = 0.5 that the first lacks
        lambda t: (1.0 + (t >= 0.5)) * np.eye(2)],
        ids=["sigmas0", "sigmas1"])
    def test_stack_needs_constant_diagonal_sigma(self, sigmas):
        # the second schedule's Sigma(t) against a constant identity
        schedules = [CovarianceSchedule.constant(np.eye(2), 1.0),
                     piecewise(sigmas, 0.1, 1.0)]
        assert not sde.stackable(schedules)
        assert sde.stackable(schedules[:1])
        with pytest.raises(ValueError, match="shared piece starts and "
                                             "diagonal Sigma"):
            simulate_ensemble(linear_model(n=2), schedules, np.zeros(2), 0.1,
                              1.0, 4, [0, 1])

    @pytest.mark.parametrize("small_chunks", [False, True])
    def test_piecewise_blocks_match_separate_runs(self, small_chunks,
                                                  monkeypatch):
        # two blocks on the starts of the piecewise-diagonal reference case
        if small_chunks:
            monkeypatch.setattr(sde, "_SLAB_ELEMS", 1)
            monkeypatch.setattr(sde, "_TILE_ELEMS", 1100)
        schedules = [_piecewise_diagonal(), _piecewise_diagonal(-2.0)]
        assert sde.stackable(schedules)
        args = (_linear(2), schedules, [0.3, -0.2], self.DT, self.T, self.N)
        stack = simulate_ensemble(*args, [11, 12], store_every=self.STORE)
        for e, (schedule, seed) in enumerate(zip(schedules, [11, 12])):
            alone = simulate_ensemble(_linear(2), schedule, *args[2:], seed,
                                      store_every=self.STORE)
            rows = slice(e * self.N, (e + 1) * self.N)
            assert_bitwise(stack.states[rows], alone.states)

    def test_one_seed_per_schedule(self):
        schedules = [CovarianceSchedule.constant([[s]], 1.0)
                     for s in (0.1, 0.2)]
        with pytest.raises(ValueError, match="2 schedules but 1 master"):
            simulate_ensemble(linear_model(), schedules, np.zeros(1), 0.1,
                              1.0, 4, 0)


def refuse(*args, **kwargs):
    raise AssertionError("the point drift was called")


def quiet_schedule(model, T):
    return CovarianceSchedule.constant(np.zeros((model.noise_dim,) * 2), T)


class TestPointRoute:
    """A quiet one-path run of a model with a point drift steps on Python
    floats and equals the array loop bit for bit: times, every record,
    valid counts, exit and blow-up flags and exit steps, and every call of
    a reducer."""

    def assert_routes_agree(self, model, x0, dt, T, store_every):
        """The point route's outcome, checked against the array route's
        through StateRecorder and through a reducer that keeps no states
        of the run, only a log of each call."""
        assert model.point_drift is not None
        runs = []
        for m in (model, replace(model, point_drift=None)):
            log = []

            def logged(i, t, z, active, log=log):
                log.append((i, t, z.tolist(), np.signbit(z).tolist(),
                            active.tolist()))

            args = (m, quiet_schedule(m, T), np.array([x0], dtype=float), dt,
                    T, [0], store_every)
            recorded = sde._simulate_batch(*args)
            reduced = sde._simulate_batch(*args, [logged])
            assert reduced[1].shape == (1, 0, m.state_dim)
            runs.append((recorded, reduced, log))
        (recorded, reduced, log), want = runs
        for got, ref in zip(recorded + reduced, want[0] + want[1]):
            assert got.dtype == ref.dtype
            assert_bitwise(got, ref)
        assert log == want[2] and len(log) == recorded[0].size
        return recorded

    def test_diagonal_quadratic_with_constant_coefficients(self):
        # 2,000 steps recorded every 7th: the last record is off the stride
        obj = quadratic_objective(np.diag([1.0, 2.0]), np.array([0.5, -1.0]))
        model = build_underdamped(UnderdampedConfig(objective=obj))
        x0 = np.concatenate([obj.minimizer + 1.0, [0.3, -0.2]])
        times, states, valid, exited, _, _ = self.assert_routes_agree(
            model, x0, 1e-3, 2.0, 7)
        assert times.size == 287 and times[-1] == 2.0 and not exited[0]
        assert np.abs(states[0, -1] - x0).max() > 0.1

    def test_scalar_lqr_with_scheduled_coefficients(self):
        # starts at every stabilizing gain of boundary_gains, at rest and
        # thrown toward the boundary k = 1: paths that stay, blow up on the
        # first step next to the boundary, and leave the domain later
        cfg, model = scalar_lqr_scheduled()
        ks = boundary_gains(1.0, 1.0)[:, 0]
        ks = ks[cfg.objective.domain_test(ks[:, None])]
        outcomes = set()
        for k in ks:
            for v in (0.0, -100.0, -1000.0):
                *_, exited, blowup, steps = self.assert_routes_agree(
                    model, [k, v], 1e-3, 0.05, 3)
                outcomes.add((bool(exited[0]), bool(blowup[0]),
                              int(steps[0]) > 1))
        assert outcomes >= {(False, False, False), (True, True, False),
                            (True, False, True)}
        # J'' = 2 / (k - 1)^3 puts the first proposal past BLOWUP_LIMIT
        *_, exited, blowup, steps = self.assert_routes_agree(
            model, [1.0 + 5e-6, 0.0], 1e-3, 0.05, 3)
        assert exited[0] and blowup[0] and steps[0] == 1

    def test_replaced_hessian_drops_the_point_oracle(self):
        # the point oracle mirrors the oracles it was built with, so a
        # replaced Hessian drops it: the quiet one-path run of the model
        # built from the new objective steps on the new Hessian
        cfg, model = scalar_lqr_scheduled()
        obj, calls = cfg.objective, []

        def doubled(z):
            calls.append(len(z))
            return 2.0 * obj.hessian(z)

        twice = replace(obj, hessian=doubled)
        assert obj.point is not None and twice.point is None
        stepped = build_underdamped(replace(cfg, objective=twice))
        assert stepped.point_drift is None
        x0, T = [obj.minimizer[0] + 0.3, 0.0], 0.05
        got = simulate_path(stepped, quiet_schedule(stepped, T), x0, 1e-3,
                            T, 0)
        assert len(calls) >= 50  # at least one call a step
        old = simulate_path(model, quiet_schedule(model, T), x0, 1e-3, T, 0)
        assert not np.array_equal(got.states[1:, 1], old.states[1:, 1])

    def test_non_finite_proposal_raises_on_both_routes(self):
        # an infinite velocity proposes an infinite gain, on which the LQR
        # domain test raises: the point route tests the failed proposal
        cfg, model = scalar_lqr_scheduled()
        for m in (model, replace(model, point_drift=None)):
            with pytest.raises(np.linalg.LinAlgError), \
                    np.errstate(invalid="ignore"):
                simulate_path(m, quiet_schedule(m, 0.01), [2.0, np.inf],
                              1e-3, 0.01, 0)

    def test_other_runs_keep_the_array_loop(self):
        # a noisy path and two quiet ones never call the point drift
        cfg, model = scalar_lqr_scheduled()
        arrays = replace(model, point_drift=None)
        refusing = replace(model, point_drift=refuse)
        x0 = [cfg.objective.minimizer[0] + 0.3, 0.0]
        noisy = CovarianceSchedule.constant([[0.1]], 0.02)
        a, b = (simulate_path(m, noisy, x0, 1e-3, 0.02, 5, store_every=3)
                for m in (refusing, arrays))
        assert_bitwise(a.states, b.states)
        a, b = (simulate_ensemble(m, quiet_schedule(m, 0.02), x0, 1e-3, 0.02,
                                  2, 5, store_every=3)
                for m in (refusing, arrays))
        assert_bitwise(a.states, b.states)
