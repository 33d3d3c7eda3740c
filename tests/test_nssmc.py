"""Unit tests for the Monte Carlo verification layer."""

import configparser
import math
import multiprocessing
import os
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nsslab import nssmc
from nsslab.langevin import (OverdampedConfig, build_overdamped,
                             objective_size_function)
from nsslab.lqr import (LqrProblem, gain_noise_schedule, lqr_objective,
                        solve_riccati, vec_gain)
from nsslab.lyapcert import self_values
from nsslab.nssmc import (NssExperiment, PathMeans, WindowValues,
                          inss_accumulation_check, run_experiment,
                          scnss_threshold_scan)
from nsslab.objectives import quadratic_objective
from nsslab.compfun import K, ScalarClassFunction
from nsslab.sde import (CovarianceSchedule, DiffusionModel, record_times,
                        simulate_ensemble)

from helpers import (euler_decay, half_norm_squared, piecewise,
                     replayed_exceedance)
from test_nssmc_reference import (lqr_case, quadratic_case,
                                  reference_exceedance_fraction,
                                  reference_inss_accumulation_check,
                                  reference_run_experiment)


def scalar_setup():
    obj = quadratic_objective(np.array([[1.0]]), np.zeros(1))
    model = build_overdamped(OverdampedConfig(objective=obj))
    V = objective_size_function(obj)
    return model, V


def make_experiment(sigmas, N=200, T=10.0, dt=1e-2, seed=0, x0=1.0):
    model, V = scalar_setup()
    schedules = [CovarianceSchedule.constant(np.array([[s]]), T)
                 for s in sigmas]
    return NssExperiment(dynamics=model, V=V, schedule_family=schedules,
                         x0=np.full(1, x0), N=N, dt=dt, T=T, master_seed=seed,
                         store_every=5)


class TestExperimentValidation:
    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            make_experiment([0.1], N=50)

    def test_descending_intensities_rejected(self):
        with pytest.raises(ValueError):
            make_experiment([0.4, 0.1])

    def test_bad_epsilon_rejected(self):
        model, V = scalar_setup()
        s = [CovarianceSchedule.constant(np.array([[0.1]]), 1.0)]
        with pytest.raises(ValueError):
            NssExperiment(dynamics=model, V=V, schedule_family=s,
                          x0=np.ones(1), N=100, dt=1e-2, T=1.0,
                          master_seed=0, epsilon=1.5)


class TestGainCurve:
    def test_monotone_quantiles_and_determinism(self):
        exp = make_experiment([0.1, 0.2, 0.4], N=400, T=20.0)
        curve1 = run_experiment(exp)
        curve2 = run_experiment(exp)
        assert np.array_equal(curve1.tail_quantiles, curve2.tail_quantiles)
        assert np.all(np.diff(curve1.tail_quantiles) > 0)
        assert np.all(curve1.blowup_fractions == 0.0)

    def test_intensity_grid_is_spectral_norm(self):
        exp = make_experiment([0.1, 0.2], T=5.0)
        curve = run_experiment(exp)
        assert np.allclose(curve.intensities, [0.01, 0.04])

    def test_tail_window_pooling(self):
        model, V = scalar_setup()
        s = CovarianceSchedule.constant(np.array([[0.2]]), 10.0)
        tail = WindowValues(lambda z: self_values(V, z),
                            record_times(1e-2, 10.0, 5), 100, 5.0, 10.0)
        ens = simulate_ensemble(model, s, np.ones(1), 1e-2, 10.0, 100, 0,
                                store_every=5, reducers=[tail])
        pooled = tail.valid_values()
        idx = (ens.times >= 5.0) & (ens.times <= 10.0)
        assert pooled.size == 100 * idx.sum()
        assert (tail.valid == idx.sum()).all()


class TestDecayEnvelope:
    def test_quiet_means_are_the_euler_closed_form(self):
        # the quiet ensemble is the oracle of gain-sweep's envelope: its
        # mean of V = z^2/2 is V0 (1 - dt)^(2k) = V0 exp(-rate t) at every
        # record, down to V ~ 1e-18 at T = 20
        model, V = scalar_setup()
        dt, T = 1e-3, 20.0
        times = record_times(dt, T, 25)
        mean_v = PathMeans(lambda z: self_values(V, z), times.size)
        simulate_ensemble(model,
                          CovarianceSchedule.constant(np.zeros((1, 1)), T),
                          np.ones(1), dt, T, 200, 0, store_every=25,
                          reducers=[mean_v])
        assert times.size == 801
        want = euler_decay(dt, 1.0)(0.5, times)
        np.testing.assert_allclose(mean_v.means, want, rtol=1e-12, atol=0)


class TestExceedance:
    def test_generous_bound_never_exceeded(self):
        model, V = scalar_setup()
        ens = simulate_ensemble(
            model, CovarianceSchedule.constant(np.array([[0.1]]), 5.0),
            np.ones(1), 1e-2, 5.0, 100, 0, store_every=5)
        frac = replayed_exceedance(ens, V, lambda v0, t: v0 * 0.0 + 100.0)
        assert frac == 0.0

    def test_zero_bound_always_exceeded(self):
        model, V = scalar_setup()
        ens = simulate_ensemble(
            model, CovarianceSchedule.constant(np.array([[0.1]]), 5.0),
            np.ones(1), 1e-2, 5.0, 100, 0, store_every=5)
        frac = replayed_exceedance(ens, V, lambda v0, t: v0 * 0.0)
        assert frac == 1.0

    @pytest.mark.parametrize("scalar, vector", [
        (lambda v0, t: v0 * math.exp(-t) + 0.02,
         lambda v0, t: v0 * np.exp(-t) + 0.02),
        (lambda v0, t: v0 + 0.01 if t < 1.0 else 0.1,
         lambda v0, t: np.where(t < 1.0, v0 + 0.01, 0.1))])
    def test_scalar_only_bound_matches_vectorised_twin(self, scalar, vector):
        # the dense reference evaluates a scalar-only bound point by point;
        # the reducer is given its vectorised twin
        model, V = scalar_setup()
        ens = simulate_ensemble(
            model, CovarianceSchedule.constant(np.array([[0.3]]), 2.0),
            np.ones(1), 1e-2, 2.0, 60, 0, store_every=5)
        frac = replayed_exceedance(ens, V, vector)
        assert frac == reference_exceedance_fraction(ens, V, scalar)
        assert 0.0 < frac < 1.0

    def test_scalar_only_bound_raises(self):
        # bounds are called on arrays; one built on math.exp cannot take them
        model, V = scalar_setup()
        ens = simulate_ensemble(
            model, CovarianceSchedule.constant(np.array([[0.3]]), 2.0),
            np.ones(1), 1e-2, 2.0, 60, 0, store_every=5)
        with pytest.raises(TypeError):
            replayed_exceedance(ens, V,
                                lambda v0, t: v0 * math.exp(-t) + 0.02)

    def test_bound_error_propagates(self):
        model, V = scalar_setup()
        ens = simulate_ensemble(
            model, CovarianceSchedule.constant(np.array([[0.1]]), 1.0),
            np.ones(1), 1e-2, 1.0, 10, 0, store_every=5)

        def broken_on_arrays(v0, t):
            if np.ndim(v0):
                raise ZeroDivisionError("float division by zero")
            return v0 + 1.0

        with pytest.raises(ZeroDivisionError):
            replayed_exceedance(ens, V, broken_on_arrays)

    def test_calibrated_envelope_small_fraction(self):
        model, V = scalar_setup()
        sigma, T = 0.2, 30.0
        beta = euler_decay(1e-3, 1.1)
        ens = simulate_ensemble(
            model, CovarianceSchedule.constant(np.array([[sigma]]), T),
            np.ones(1), 1e-3, T, 500, 0, store_every=10)
        frac = replayed_exceedance(
            ens, V, lambda v0, t: beta(v0, t) + 10.0 * sigma**2)
        assert frac <= 0.05


class TestThresholdScan:
    def lqr_experiment(self, sigmas, N=100, T=5.0):
        problem = LqrProblem(A=np.eye(1), F=np.eye(1), Q=np.eye(1),
                             R=np.eye(1))
        profile = solve_riccati(problem, K0=np.array([[2.0]]))
        obj = lqr_objective(problem, profile)
        model = build_overdamped(OverdampedConfig(objective=obj))
        V = objective_size_function(obj)
        schedules = [gain_noise_schedule(np.array([[s]]), 1, T)
                     for s in sigmas]
        return NssExperiment(dynamics=model, V=V, schedule_family=schedules,
                             x0=vec_gain(profile.Kstar), N=N, dt=1e-3, T=T,
                             master_seed=3, store_every=20)

    def test_lqr_bracket_found(self):
        scan = scnss_threshold_scan(self.lqr_experiment([0.05, 0.5, 5.0]))
        assert scan.lower is not None
        assert scan.upper_onset_detected
        assert "bracket" in scan.describe()

    def test_quadratic_reports_no_upper_onset(self):
        scan = scnss_threshold_scan(
            make_experiment([0.05, 0.5, 5.0], N=100, T=5.0))
        assert not scan.upper_onset_detected
        assert "no upper onset" in scan.describe()

    def test_needs_two_intensities(self):
        with pytest.raises(ValueError):
            scnss_threshold_scan(make_experiment([0.1]))


def forked_rounds(monkeypatch, cpus=8):
    """Make the sweep see ``cpus`` usable CPUs, and return the list to
    which every later ``nssmc._run_forked`` call (one per round) appends
    its process count."""
    monkeypatch.setattr(nssmc, "_usable_cpus", lambda: cpus)
    calls, run_forked = [], nssmc._run_forked

    def spy(run, parts):
        calls.append(len(parts))
        return run_forked(run, parts)

    monkeypatch.setattr(nssmc, "_run_forked", spy)
    return calls


def planned_rounds(monkeypatch, N, n_ensembles, workers, can_stack=True,
                   cpus=None):
    """The row count of each batch of each round that ``run_experiment``
    places, with nothing integrated, after checking that the batches cover
    the sweep's rows once, in order; ``cpus`` (default: the real count) is
    the number of usable CPUs the sweep sees."""
    batches = nssmc._batches(N, n_ensembles, can_stack)
    assert batches[0][0] == 0 and batches[-1][1] == N * n_ensembles
    assert all(x[1] == y[0] and x[0] < x[1]
               for x, y in zip(batches, batches[1:]))
    rounds = []
    if cpus is not None:
        monkeypatch.setattr(nssmc, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(nssmc, "stackable", lambda family: can_stack)
    monkeypatch.setattr(nssmc, "_run_forked", lambda run, parts:
                        rounds.append([b - a for a, b in parts]))
    monkeypatch.setattr(nssmc, "_SweepEnsemble", lambda exp, j, bound:
                        SimpleNamespace(stats=lambda: (0.0, 0.0, None)))
    run_experiment(make_experiment(np.arange(1, n_ensembles + 1), N=N,
                                   T=1.0), workers=workers)
    assert [n for r in rounds for n in r] == [b - a for a, b in batches]
    return rounds


def shard_bounds(N):
    """The cuts of one ensemble alone: max(1, N // 4096) path ranges."""
    S = max(1, N // 4096)
    return [(N * i // S, N * (i + 1) // S) for i in range(S)]


def shipped_sweep(stem):
    """(N, ensemble count) of a shipped sweep config."""
    cfg = configparser.ConfigParser()
    cfg.read(Path(__file__).resolve().parent.parent / "configs"
             / f"{stem}.ini")
    return cfg.getint("mc", "N"), len(cfg.get("noise", "sigmas").split(","))


def boxed_case(N=2 * 4096 + 3, T=1.0):
    # two shards per ensemble, [0, 4097) and [4097, 8195); the box makes
    # paths exit in both
    model = DiffusionModel(state_dim=1, noise_dim=1, drift=lambda z: -z,
                           domain_test=lambda z: np.abs(z[:, 0]) < 1.2)
    exp = NssExperiment(
        dynamics=model, V=half_norm_squared(),
        schedule_family=[CovarianceSchedule.constant([[s]], T)
                         for s in (0.5, 1.0)],
        x0=np.linspace(-1.0, 1.0, N)[::-1, None].copy(), N=N, dt=1e-2, T=T,
        master_seed=7, store_every=5)
    return exp, [lambda v0, t: v0 * np.exp(-t) + 0.3] * 2


def dense_case(N=100, T=1.0):
    # z @ M.T is a matrix product over the whole batch, which need not be
    # row-independent
    M = np.array([[1.0, 0.3, 0.0], [0.2, 1.5, 0.1], [0.0, 0.4, 0.8]])
    exp = NssExperiment(
        dynamics=DiffusionModel(state_dim=3, noise_dim=3,
                                drift=lambda z: -(z @ M.T)),
        V=half_norm_squared(),
        schedule_family=[CovarianceSchedule.constant(s * np.eye(3), T)
                         for s in (0.1, 0.2, 0.4, 0.8, 1.6)],
        x0=np.ones(3), N=N, dt=1e-2, T=T, master_seed=4, store_every=5)
    return exp, [lambda v0, t: v0 * np.exp(-t) + 0.5] * 5


class TestShards:
    """Batches: the sweep's rows, row j N + k being path k of ensemble j,
    cut by one rule of (N, ensemble count, stackable) alone."""

    N = 2 * 4096 + 3

    def test_shard_layout_depends_on_n_alone(self):
        # a large or unstackable ensemble is cut alone, into
        # max(1, N // 4096) path ranges of at least 4096 rows
        assert nssmc._batches(8191, 1, True) == [(0, 8191)]
        assert nssmc._batches(self.N, 1, True) == [(0, 4097), (4097, 8195)]
        for N in (100, 4095, 4096, 8191, self.N, 10_000, 12_289, 100_003):
            for J in (1, 3):
                for can_stack in (False, True) if N >= 4096 else (False,):
                    assert nssmc._batches(N, J, can_stack) == [
                        (j * N + lo, j * N + hi) for j in range(J)
                        for lo, hi in shard_bounds(N)]
            sizes = [b - a for a, b in nssmc._batches(N, 1, False)]
            assert len(sizes) == 1 or min(sizes) >= 4096
        # gain_sweep keeps two batches of 5,000 paths per ensemble
        N, J = shipped_sweep("gain_sweep")
        assert nssmc._batches(N, J, True) == [
            (j * N + lo, j * N + hi) for j in range(J)
            for lo, hi in [(0, 5000), (5000, 10_000)]]

    def test_stack_layout_depends_on_n_and_count_alone(self):
        # small ensembles that stack: ceil(N J / 4096) batches, balanced
        for N in (100, 131, 1_000, 2_000, 2_048, 2_049, 4_095):
            for J in (1, 3, 50):
                batches = nssmc._batches(N, J, True)
                sizes = [b - a for a, b in batches]
                assert len(batches) == -(-N * J // 4096)
                assert max(sizes) <= 4096 and max(sizes) - min(sizes) <= 1
        # lqr_po_overdamped: one batch of its five ensembles
        N, J = shipped_sweep("lqr_po_overdamped")
        assert nssmc._batches(N, J, True) == [(0, 500)]
        assert nssmc._blocks(N, 0, 500) == [(j, 0, 100) for j in range(5)]
        # quadratic_overdamped: two batches of 3,000 rows, the first
        # ensemble 0 and paths [0, 1000) of ensemble 1
        N, J = shipped_sweep("quadratic_overdamped")
        assert nssmc._batches(N, J, True) == [(0, 3000), (3000, 6000)]
        assert nssmc._blocks(N, 0, 3000) == [(0, 0, 2000), (1, 0, 1000)]
        assert nssmc._blocks(N, 3000, 6000) == [(1, 1000, 2000),
                                                (2, 0, 2000)]

    def test_process_count_capped_by_cpus_and_shards(self, monkeypatch):
        cpus = len(os.sched_getaffinity(0))
        assert nssmc._usable_cpus() == cpus
        K = min(2, cpus)
        assert planned_rounds(monkeypatch, 10_000, 1, 10**6) == [
            [5000] * K] * (2 // K)
        assert [len(r) for r in planned_rounds(
            monkeypatch, 64 * 4096, 1, 10**6, cpus=3)] == [3] * 21 + [1]
        assert planned_rounds(monkeypatch, 10_000, 1, 10**6,
                              cpus=64) == [[5000, 5000]]
        assert planned_rounds(monkeypatch, 64 * 4096, 1, 1,
                              cpus=64) == [[4096]] * 64

    def test_worker_failure_raises_in_parent(self, monkeypatch):
        def drift(z):
            if (z[:, 0] > 100.0).any():
                raise FloatingPointError("drift rejects a shard-1 state")
            return -z

        x0 = np.zeros((self.N, 1))
        x0[4097:] = 1000.0
        exp = NssExperiment(
            dynamics=DiffusionModel(state_dim=1, noise_dim=1, drift=drift),
            V=half_norm_squared(),
            schedule_family=[CovarianceSchedule.constant([[0.0]], 1.0)],
            x0=x0, N=self.N, dt=1e-2, T=1.0, master_seed=0, store_every=5)
        calls = forked_rounds(monkeypatch)
        # one process runs the two batches in turn, or two side by side
        for workers, rounds in ((1, [1, 1]), (2, [2])):
            calls.clear()
            with pytest.raises(FloatingPointError,
                               match="shard-1 state") as info:
                run_experiment(exp, workers=workers)
            assert calls == rounds
            forked = isinstance(info.value.__cause__, RuntimeError)
            assert forked == (workers == 2)
            assert multiprocessing.active_children() == []


class TestSweepRounds:
    def test_round_size_rule(self, monkeypatch):
        # (N, ensembles, workers, CPUs) -> the row count of each batch of
        # each round: K = min(workers, CPUs, batches) batches per round
        table = {
            (10_000, 3, 2, 2): [[5000, 5000]] * 3,  # gain_sweep
            (12_288, 2, 2, 8): [[4096, 4096]] * 3,
            (12_288, 4, 3, 8): [[4096] * 3] * 4,
            (100, 5, 2, 2): [[500]],  # lqr_po_overdamped
            (2_000, 3, 8, 2): [[3000, 3000]],  # quadratic_overdamped
            (2_000, 3, 1, 2): [[3000], [3000]],
            (1_000, 9, 2, 8): [[3000, 3000], [3000]],
            (1_000, 9, 3, 8): [[3000] * 3],
            (1_000, 9, 8, 1): [[3000]] * 3,  # K capped by CPUs
            (131, 100, 2, 2): [[3275, 3275]] * 2,
            (4_095, 2, 2, 8): [[4095, 4095]],
            (4_096, 5, 3, 8): [[4096] * 3, [4096] * 2],
            (100, 1, 2, 2): [[100]],  # K capped by the batches
            (8_192, 4, 3, 8): [[4096] * 3, [4096] * 3, [4096] * 2],
            (8_192, 3, 8, 8): [[4096] * 6],
        }
        for (N, J, workers, cpus), want in table.items():
            assert planned_rounds(monkeypatch, N, J, workers,
                                  cpus=cpus) == want, (N, J, workers, cpus)
        # schedules that cannot stack: one batch per ensemble
        unstacked = {
            (100, 5, 2, 2): [[100, 100], [100, 100], [100]],
            (2_000, 3, 8, 2): [[2000, 2000], [2000]],
            (100, 5, 3, 8): [[100] * 3, [100] * 2],
            (100, 5, 1, 8): [[100]] * 5,
            (100, 5, 8, 1): [[100]] * 5,  # K capped by the CPUs
            (100, 1, 2, 2): [[100]],  # K capped by the batches
        }
        for (N, J, workers, cpus), want in unstacked.items():
            assert planned_rounds(monkeypatch, N, J, workers, False,
                                  cpus) == want, (N, J, workers, cpus)

    @pytest.mark.parametrize("case, batch_rows, rounds", [
        # one batch of all five ensembles, run in the parent
        pytest.param("lqr", None, {1: [1], 2: [1], 3: [1], 8: [1]},
                     id="lqr"),
        # three batches of 218 or 219 rows, cut inside ensembles 1 and 3
        pytest.param("lqr", 262,
                     {1: [1, 1, 1], 2: [2, 1], 3: [3], 8: [3]},
                     id="lqr-3-batches"),
        # a batch per ensemble
        pytest.param("lqr", 131,
                     {1: [1] * 5, 2: [2, 2, 1], 3: [3, 2], 8: [5]},
                     id="lqr-unstacked"),
        pytest.param("quadratic", None, {1: [1], 2: [1], 3: [1], 8: [1]},
                     id="quadratic"),
        pytest.param("quadratic", 700, {1: [1, 1], 2: [2], 3: [2], 8: [2]},
                     id="quadratic-stacks-of-2"),
        # two batches per ensemble; at 3 workers ensemble 1 spans rounds
        pytest.param("boxed", None, {1: [1] * 4, 2: [2, 2], 3: [3, 1],
                                     8: [4]}, id="boxed"),
        # three batches, cut inside ensembles 1 and 3
        pytest.param("dense", 200, {1: [1, 1, 1], 2: [2, 1], 3: [3], 8: [3]},
                     id="dense-3-batches"),
    ])
    def test_curve_does_not_depend_on_workers(self, case, batch_rows,
                                              rounds, monkeypatch):
        # the LQR sweep's top intensities make paths exit; the boxed sweep
        # has two batches per ensemble, with exits in both; the dense
        # drift is not row-independent; all carry exceedance bounds; the
        # LQR and boxed curves also equal the dense route's
        if batch_rows is not None:
            monkeypatch.setattr(nssmc, "_BATCH_ROWS", batch_rows)
        if case == "lqr":
            exp, bounds = lqr_case()
        elif case == "quadratic":
            exp, bounds = quadratic_case([1.0], sigmas=(0.1, 0.2, 0.4, 0.8))
        elif case == "boxed":
            exp, bounds = boxed_case()
        else:
            exp, bounds = dense_case()
        want = run_experiment(exp, bounds)
        if case in ("lqr", "boxed"):
            # the batches, run in turn, match one batch of the dense route
            ref, ensembles = reference_run_experiment(exp)
            for name in ("tail_quantiles", "blowup_fractions"):
                assert np.array_equal(getattr(want, name), getattr(ref, name))
        if case == "lqr":
            assert want.blowup_fractions[0] == 0.0
            assert want.blowup_fractions[-1] > 0.9
            # at sigma = 5 paths exit both before and inside the window
            times, counts = ensembles[3].times, ensembles[3].valid_counts
            first = np.flatnonzero(times >= exp.T / 2.0)[0]
            assert (counts <= first).any()
            assert ((counts > first) & (counts < times.size)).any()
        if case == "boxed":
            for ens in ensembles:
                assert ens.exited[:4097].any() and ens.exited[4097:].any()
                assert not ens.exited.all()
            assert want.exceedance_fractions.tolist() == [
                reference_exceedance_fraction(e, exp.V, b)
                for e, b in zip(ensembles, bounds)]
        calls = forked_rounds(monkeypatch)
        for workers in (1, 2, 3, 8):
            calls.clear()
            got = run_experiment(exp, bounds, workers=workers)
            assert calls == rounds[workers]
            for name in ("intensities", "tail_quantiles", "blowup_fractions",
                         "exceedance_fractions"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype, name
                assert np.array_equal(a, b, equal_nan=True), (name, workers)
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("family", ["diagonal", "full", "time-varying",
                                        "differing-starts"])
    def test_only_constant_diagonal_families_stack(self, family,
                                                   monkeypatch):
        # diagonal families stack when they share their piece starts
        T = 0.5
        shape = np.eye(2) if family != "full" else np.array([[1.0, 0.5],
                                                              [0.0, 1.0]])
        drop = {"time-varying": [0.3] * 3,
                "differing-starts": [0.1, 0.2, 0.3]}.get(family)
        schedules = [CovarianceSchedule.constant(s * shape, T) if drop is None
                     else piecewise(lambda t, S=s * shape, u=u:
                                    S * (1.0 - 0.5 * (t >= u)), 1e-2, T)
                     for s, u in zip((0.1, 0.2, 0.4), drop or [None] * 3)]
        exp = NssExperiment(
            dynamics=DiffusionModel(state_dim=2, noise_dim=2,
                                    drift=lambda z: -z),
            V=half_norm_squared(), schedule_family=schedules,
            x0=np.ones(2), N=100, dt=1e-2, T=T, master_seed=2,
            store_every=5)
        calls = []

        def spy(model, schedule, *args, **kwargs):
            calls.append(len(schedule))
            return simulate_ensemble(model, schedule, *args, **kwargs)

        monkeypatch.setattr(nssmc, "simulate_ensemble", spy)
        run_experiment(exp)
        assert calls == ([3] if family in ("diagonal", "time-varying")
                         else [1, 1, 1])

    def test_failure_in_a_later_ensemble_raises_in_parent(self,
                                                          monkeypatch):
        def drift(z):
            if (np.abs(z) > 50.0).any():
                raise FloatingPointError("drift saw a state beyond 50")
            return -z

        T = 1.0
        exp = NssExperiment(
            dynamics=DiffusionModel(state_dim=1, noise_dim=1, drift=drift),
            V=half_norm_squared(),
            schedule_family=[CovarianceSchedule.constant([[s]], T)
                             for s in (0.0, 0.0, 0.0, 1e3)],
            x0=np.zeros(1), N=100, dt=1e-2, T=T, master_seed=3,
            store_every=5)
        calls = forked_rounds(monkeypatch)
        # _BATCH_ROWS -> (rounds per worker count, the worker counts at
        # which the raising fourth ensemble runs in a forked worker)
        cases = {
            # one batch of all four ensembles, run in the parent
            4096: ({1: [1], 2: [1], 3: [1], 8: [1]}, ()),
            # batches of two ensembles: the raising batch is the second
            200: ({1: [1, 1], 2: [2], 3: [2], 8: [2]}, (2, 3, 8)),
            # a batch per ensemble: the raising one runs in the parent at
            # 1 and 3 workers (rounds [3, 1]), in a forked worker at 2 and 8
            100: ({1: [1] * 4, 2: [2, 2], 3: [3, 1], 8: [4]}, (2, 8)),
        }
        for batch_rows, (rounds, forked) in cases.items():
            monkeypatch.setattr(nssmc, "_BATCH_ROWS", batch_rows)
            for workers in (1, 2, 3, 8):
                calls.clear()
                with pytest.raises(FloatingPointError,
                                   match="beyond 50") as info:
                    run_experiment(exp, workers=workers)
                assert calls == rounds[workers], (batch_rows, workers)
                in_worker = isinstance(info.value.__cause__, RuntimeError)
                assert in_worker == (workers in forked)
                assert multiprocessing.active_children() == []

    def test_ensemble_lives_from_first_to_last_batch_round(self,
                                                           monkeypatch):
        exp, bounds = quadratic_case([1.0], sigmas=(0.1, 0.2, 0.4, 0.8))
        N = exp.N
        refs, alive = [], []

        class Tracked(nssmc._SweepEnsemble):
            def __init__(self, *args):
                super().__init__(*args)
                refs.append(weakref.ref(self))

        calls = forked_rounds(monkeypatch)
        run_forked = nssmc._run_forked

        def spy(run, parts):
            alive.append([r().j for r in refs if r() is not None])
            return run_forked(run, parts)

        monkeypatch.setattr(nssmc, "_SweepEnsemble", Tracked)
        monkeypatch.setattr(nssmc, "_run_forked", spy)
        want = run_experiment(exp, bounds)
        # four ensembles of N = 350; 500 rows a batch cuts inside
        # ensembles 1 and 2, so each spans two batches
        for batch_rows in (350, 500, 700, 1400):
            monkeypatch.setattr(nssmc, "_BATCH_ROWS", batch_rows)
            batches = nssmc._batches(N, 4, True)
            for workers in (1, 2, 3):
                refs.clear()
                alive.clear()
                calls.clear()
                got = run_experiment(exp, bounds, workers=workers)
                assert np.array_equal(got.tail_quantiles,
                                      want.tail_quantiles)
                # batch i runs in round i // K; ensemble j is alive from
                # the round of the batch with row j N to that of row
                # (j + 1) N - 1
                K = min(workers, len(batches))
                round_of = [next(i for i, (a, b) in enumerate(batches)
                                 if a <= row < b) // K
                            for row in range(4 * N)]
                assert alive == [[j for j in range(4)
                                  if round_of[j * N] <= r
                                  <= round_of[(j + 1) * N - 1]]
                                 for r in range(len(calls))], (batch_rows,
                                                                workers)
                assert all(r() is None for r in refs)

    def test_workers_below_one_rejected(self):
        exp = make_experiment([0.1, 0.2], T=1.0)
        for workers in (0, -1):
            with pytest.raises(ValueError, match="workers"):
                run_experiment(exp, workers=workers)


class TestSharedPages:
    """A sweep's per-path outputs live in anonymous shared pages, which a
    forked worker writes for the parent to read."""

    @pytest.mark.parametrize("shape", [0, (0,), (0, 5), (3, 0), 5, (4, 3)])
    def test_zero_filled_and_writable_at_any_size(self, shape):
        # size 0 maps one byte: mmap refuses a zero-length mapping
        for dtype in (float, bool, np.int64):
            a = nssmc._shared(shape, dtype)
            assert a.shape == np.empty(shape).shape and a.dtype == dtype
            assert not a.any() and a.flags.writeable
            a[...] = 1
            assert a.size == 0 or a.all()

    def test_forked_writes_reach_the_parent(self):
        # more processes than CPUs, each writing its own row; a private
        # array shows that only the shared pages carry a worker's writes
        parts = range(2 * nssmc._usable_cpus() + 2)
        shared = nssmc._shared((len(parts), 1000), np.int64)
        private = np.zeros(shared.shape, dtype=np.int64)

        def run(k):
            shared[k] = private[k] = k + 1

        # part 0 runs in this process, the others in forked workers
        nssmc._run_forked(run, parts)
        assert (shared == np.arange(1, len(parts) + 1)[:, None]).all()
        assert (private[0] == 1).all() and not private[1:].any()
        assert multiprocessing.active_children() == []


class TestAccumulation:
    def test_integral_gain_bound_holds(self):
        model, V = scalar_setup()
        T = 20.0
        ramp = piecewise(lambda t: np.array([[0.1 * min(t / T, 1.0)]]),
                         1e-3, T)
        exp = NssExperiment(dynamics=model, V=V, schedule_family=[ramp],
                            x0=np.ones(1), N=200, dt=1e-3, T=T,
                            master_seed=0, store_every=10)
        # extra headroom absorbs transient fluctuations around the decay
        beta = euler_decay(1e-3, 1.5)
        gamma = ScalarClassFunction(
            lambda s: 10.0 * np.asarray(s, dtype=float), K,
            description="10 s")
        rep = inss_accumulation_check(exp, gamma, beta)
        assert rep.passed
        assert rep.integral_gain_final > 0.0
        # the dense route on the same seed: a recorded ensemble's bound
        ens = simulate_ensemble(model, ramp, np.ones(1), 1e-3, T, 200, 0,
                                store_every=10)
        assert rep == reference_inss_accumulation_check(ens, V, gamma, ramp,
                                                         beta)

    def test_integral_is_exact_over_pieces(self):
        # sigma = 1 on [0, 0.5) and 2 on [0.5, 1) with gamma(s) = s: the
        # integral to T = 1 is 0.5 * 1 + 0.5 * 4 = 2.5 exactly, where a
        # trapezoid on the records 0, 0.3, 0.6, 0.9, 1 would give 2.65
        model, V = scalar_setup()
        s = CovarianceSchedule([0.0, 0.5], [[[1.0]], [[2.0]]], horizon=1.0)
        exp = NssExperiment(dynamics=model, V=V, schedule_family=[s],
                            x0=np.ones(1), N=100, dt=0.1, T=1.0,
                            master_seed=0, store_every=3)
        gamma = ScalarClassFunction(lambda s: np.asarray(s, dtype=float), K)
        rep = inss_accumulation_check(exp, gamma, lambda v0, t: v0)
        assert abs(rep.integral_gain_final - 2.5) <= 1e-15

    def test_one_schedule_only(self):
        exp = make_experiment([0.1, 0.2], T=1.0)
        gamma = ScalarClassFunction(lambda s: np.asarray(s, dtype=float), K)
        with pytest.raises(ValueError, match="one schedule"):
            inss_accumulation_check(exp, gamma, lambda v0, t: v0)
