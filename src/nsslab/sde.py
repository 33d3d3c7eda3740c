"""Euler-Maruyama integration of diffusions with additive, time-varying noise.

A model is dz = drift(z) dt + G Sigma(t) dB: a drift, a constant (n, m)
noise map G and an m x m noise transform Sigma(t), held as data that is
piecewise constant with every piece start on the dt grid
(:class:`CovarianceSchedule`) up to a horizon that a run's T may not
pass.  Euler-Maruyama reads Sigma only at the step starts k dt and holds
it for the step, so that is every Sigma a run can see.  With additive
noise Euler-Maruyama coincides with Milstein (Kloeden & Platen 1992,
10.3).  Model callables (drift, domain test) take arrays with a leading
batch axis: drift maps (B, n) -> (B, n), domain tests map (B, n) -> (B,)
booleans.  Single trajectories are batches of one, so the serial and
ensemble paths agree bit for bit (a quiet one may step on floats, below).

Randomness is counter-based: each path owns a Philox generator keyed by a
64-bit seed derived from (master_seed, path index), so a path's increments
are a pure function of its seed and step index, independent of batch size,
chunking, or parallelism.  A seed outside [0, 2**64) is taken mod 2**64.

A call with E schedules, E master seeds and E ranges of path indices
integrates a stack: one batch whose e-th block of rows is the e-th
range's paths of the e-th seed's ensemble under the e-th schedule; a
single schedule is a stack of one, over paths [0, N).  The schedules of a
stack share their piece starts, with diagonal pieces
(:func:`stackable`), so on each piece their diagonals fold into one
(B, m) per-row factor, each block's repeated over its own rows, and each
noise entry is the same single rounded multiply as in a run of its block
alone.  A block then equals the paths of its range in a batch of its
whole ensemble, bit for bit, when the drift and the domain test are
row-independent (f of a batch equals f of each row: the diagonal
quadratic and the scalar LQR drifts are, a dense ``z @ M.T`` is not).
:mod:`nssmc` cuts a sweep's rows into such stacks.

The integrator keeps no states of its own.  At every recorded step
(every ``store_every``-th step and the last, see :func:`record_times`) it
hands ``(record index, t, z, active)`` to the reducers its caller
declares: callables that read the (B, n) states ``z`` and the (B,)
``active`` mask (False once a path has left the domain or blown up; its
row of ``z`` then holds its last valid state) and must not modify or keep
them.  :class:`StateRecorder`, which keeps every state, is the default,
so a single path comes back as a dense array; every Monte Carlo
statistic of :mod:`nssmc` is a reducer instead.

Each step proposes ``z_new = z + drift(z) dt + noise`` for every path,
exited or not, and tests all of it once for magnitude (every component
finite and at most ``BLOWUP_LIMIT`` in size) and once with the domain
test.  While every path is active and both tests pass, ``z_new`` is
taken as it is.  Otherwise the same two masks decide which active paths
leave, a failed magnitude test marking a blow-up, and each path that
has left keeps its last valid state.  The domain test sees the whole
``z_new`` on every step, so an error it raises, such as the LQR test's
on a non-finite gain, does not depend on which paths are still active.

Noise is laid out step-major.  The integrator draws a chunk of at most
``_CHUNK_STEPS`` (400) steps per path into a path tile of at most
``_TILE_ELEMS`` doubles (1 MiB) and copies each tile, transposed, into
one (steps, B, m) slab of at most ``_SLAB_ELEMS`` doubles (32 MiB), so
every step reads a contiguous (B, m) block; 400 steps keep a 5,000-path
slab at 16 MB.  The part of a chunk in each piece is then scaled by the
piece's Sigma.  A diagonal piece scales it at once, with a contiguous
(B, m) row factor, as ``x * s + 0.0``: that equals the matmul ``x @ S.T``
bit for bit on finite x, because each entry of the product is one
rounded multiply, and the ``+ 0.0`` is the matmul's +0.0 accumulator,
which turns a -0.0 product into +0.0.  Any other piece multiplies each
step's block.  A noise map other than the identity then applies as
``einsum("nm,bm->bn", G, w)``, the per-path product of G with each row w
bit for bit (``w @ G.T`` is not, for m > 1).

A run whose Sigma is zero (after the sqrt(dt) scaling) on every piece it
reaches draws nothing, and each step is ``z + drift(z) dt`` followed by
the ``+ 0.0`` that the zero increment added: the noisy step bit for bit
for every finite noise map, because G times a +0.0 increment sums to
+0.0.  In a run that draws, a zero piece or block turns each finite draw
into the same +0.0 increment.

A quiet one-path run of a model with a ``point_drift`` (its row of the
drift and domain test) steps on Python floats by the same rules, bit for
bit: each entry of ``x + d dt + 0.0`` is numpy's IEEE-754 operation.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

BLOWUP_LIMIT = 1e12
_SLAB_ELEMS = 1 << 22  # step-major noise slab, doubles
_TILE_ELEMS = 1 << 17  # per-chunk path tile, doubles
_CHUNK_STEPS = 400  # most steps per chunk; binds when B * m <= 10,485
_FLOAT64 = np.dtype(np.float64)  # standard_normal's dtype argument

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


@dataclass(frozen=True)
class DiffusionModel:
    """Drift and constant noise map, with state domain and equilibrium.

    ``noise_map`` is the (state_dim, noise_dim) matrix G that carries the
    noise into the state; None means the identity (requires n == m), which
    enables a fast path in the integrator.  ``domain_test=None`` means the
    whole space; blow-up detection (component magnitude > 1e12 or
    non-finite) applies regardless.  ``point_drift``, set by builders, maps
    a state tuple of floats to its row of ``drift``, bit for bit, or to
    None where ``domain_test`` fails.
    """

    state_dim: int
    noise_dim: int
    drift: Callable[[np.ndarray], np.ndarray]
    noise_map: np.ndarray | None = None
    domain_test: Callable[[np.ndarray], np.ndarray] | None = None
    equilibrium: np.ndarray | None = None
    point_drift: Callable[[tuple], tuple | None] | None = None

    def __post_init__(self):
        n, m = self.state_dim, self.noise_dim
        if self.noise_map is None:
            if n != m:
                raise ValueError("identity noise map requires state_dim == "
                                 "noise_dim")
        else:
            G = np.array(self.noise_map, dtype=float)
            if G.shape != (n, m):
                raise ValueError(f"noise map shape {G.shape} != ({n}, {m})")
            if not np.isfinite(G).all():
                raise ValueError("noise map is not finite")
            G.flags.writeable = False
            object.__setattr__(self, "noise_map", G)
        if self.equilibrium is not None:
            eq = np.asarray(self.equilibrium, dtype=float).reshape(1, -1)
            if eq.shape[1] != n:
                raise ValueError("equilibrium dimension mismatch")
            f_eq = np.asarray(self.drift(eq))
            if not np.all(np.abs(f_eq) <= 1e-9):
                raise ValueError(
                    f"drift at equilibrium is not zero: |f| max {np.abs(f_eq).max():g}")


@dataclass(frozen=True)
class CovarianceSchedule:
    """A piecewise-constant noise transform Sigma(t) on [0, horizon).

    Piece p holds the m x m matrix ``sigmas[p]`` on [starts[p],
    starts[p + 1]), the last up to ``horizon``; ``starts`` ascends from 0.
    A run needs each start to be a whole number of its dt steps, and its T
    and a :func:`sup_noise_intensity` query's t_hi may not pass the
    horizon (:func:`_check_horizon`).  Any finite square Sigma is accepted:
    Sigma Sigma^T is PSD for every real Sigma.
    """

    starts: np.ndarray
    sigmas: np.ndarray
    horizon: float

    def __post_init__(self):
        starts = np.array(self.starts, dtype=float).reshape(-1)
        sigmas = np.array(self.sigmas, dtype=float)
        if sigmas.ndim != 3 or sigmas.shape[1] != sigmas.shape[2] \
                or len(sigmas) != starts.size or not starts.size:
            raise ValueError(f"sigmas of shape {sigmas.shape} are not one "
                             f"square Sigma for each of {starts.size} starts")
        if starts[0] != 0.0 or not (np.diff(starts) > 0).all() \
                or not starts[-1] < self.horizon:
            raise ValueError("piece starts must ascend from 0 and stay below "
                             f"the horizon {self.horizon:g}")
        bad = ~np.isfinite(sigmas).all(axis=(1, 2))
        if bad.any():
            raise ValueError(f"Sigma of the piece at t = "
                             f"{starts[bad.argmax()]:g} is not finite")
        for name, a in (("starts", starts), ("sigmas", sigmas)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @classmethod
    def constant(cls, mat, horizon: float) -> "CovarianceSchedule":
        return cls([0.0], np.atleast_2d(np.asarray(mat, dtype=float))[None],
                   horizon)

    def intensities(self) -> np.ndarray:
        """The spectral norm of Sigma Sigma^T on each piece."""
        S = self.sigmas
        return np.linalg.norm(S @ np.swapaxes(S, 1, 2), 2, axis=(1, 2))


def sup_noise_intensity(schedule: CovarianceSchedule, t_lo: float,
                        t_hi: float) -> float:
    """Max spectral norm of Sigma Sigma^T over [t_lo, t_hi): the exact
    maximum over the pieces that overlap it (the piece holding t_lo when
    t_lo == t_hi).  t_hi may not pass the horizon."""
    if t_lo > t_hi:
        raise ValueError("t_lo must be <= t_hi")
    _check_horizon(schedule, t_hi)
    first = max(int(np.searchsorted(schedule.starts, t_lo, "right")) - 1, 0)
    last = max(first, int(np.searchsorted(schedule.starts, t_hi)) - 1)
    return float(schedule.intensities()[first:last + 1].max())


@dataclass(frozen=True)
class TrajectoryPath:
    """One sampled path on a recorded time grid.

    ``exited_domain`` covers both boundary exits and blow-ups; ``blowup``
    distinguishes the two.  Recorded states are all valid.
    """

    times: np.ndarray
    states: np.ndarray
    exited_domain: bool = False
    blowup: bool = False


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """N paths on a shared grid of R recorded times.

    ``states`` has shape (N, R, n) when the states were recorded, and
    (N, 0, n) when the caller reduced them on the fly instead.  Entries
    at or past a path's exit hold the last valid state; ``valid_counts``
    (each path's records while active) masks them, ``exited`` (~active at
    the end) flags domain exits and blow-ups, and ``blowup`` the latter.
    """

    times: np.ndarray
    states: np.ndarray
    valid_counts: np.ndarray
    exited: np.ndarray
    blowup: np.ndarray
    dt: float


def derive_path_seeds(master_seed: int, lo: int, hi: int) -> np.ndarray:
    """The 64-bit seeds of paths lo, ..., hi - 1: for path k,
    ``SeedSequence(entropy=master_seed, spawn_key=(k,)).generate_state(1,
    np.uint64)[0]``.

    numpy's hash is repeated here for all k at once.  The master seed's
    32-bit words, zero-padded to the pool size because a spawn key
    follows, fill and mix the pool in Python integers; only the spawn
    word k (one word, so k < 2**32) and the output hash run on uint32
    arrays, whose products wrap mod 2**32 as the C code's do.
    """
    master_seed, lo, hi = int(master_seed), int(lo), int(hi)
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    if not 0 <= lo <= hi <= 2**32:
        raise ValueError("path indices must lie in [0, 2**32)")
    words = [(master_seed >> s) & _MASK32
             for s in range(0, max(master_seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    entropy = words + [np.arange(lo, hi, dtype=np.uint32)]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        r = ((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)
        r &= _MASK32
        return r ^ (r >> 16)

    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for w in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(w))
    # generate_state: two uint32 words, read as one little-endian uint64
    hash_const = _INIT_B
    out = []
    for word in pool[:2]:
        word = word ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        word = (word * hash_const) & _MASK32
        out.append(np.asarray(word ^ (word >> 16), dtype=np.uint64))
    return out[0] | (out[1] << 32)


class StateRecorder:
    """Reducer that keeps every recorded state: ``states[k, i]`` is path k
    at record i, the dense (B, R, n) layout of :class:`TrajectoryEnsemble`."""

    def __init__(self, n_paths: int, n_records: int, state_dim: int):
        self.states = np.empty((n_paths, n_records, state_dim))

    def __call__(self, i, t, z, active):
        self.states[:, i] = z


class _PathKey:
    """The seed sequence of a path's Philox: its key is the 64-bit path
    seed, so ``Philox(_PathKey(s))`` has the state of ``Philox(key=s mod
    2**64)`` without the OS-entropy ``SeedSequence`` that Philox builds
    and then discards when it is given a key.  :func:`_normal_draws`
    registers it as a numpy ``ISeedSequence``."""

    __slots__ = ("key",)

    def __init__(self, seed):
        self.key = int(seed) & (2**64 - 1)

    def generate_state(self, n_words, dtype=np.uint32):
        # Philox asks for its two 64-bit key words
        return np.array([self.key, 0], dtype=np.uint64)


def _normal_draws(seeds) -> list:
    """The bound ``standard_normal`` of each path's Philox generator.

    numpy.random is imported here, at the first draw, so that
    ``validate`` and runs that draw nothing do not load it.
    """
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_PathKey)
    return [np.random.Generator(np.random.Philox(_PathKey(s))).standard_normal
            for s in seeds]


def check_time_grid(dt: float, T: float, store_every: int = 1) -> None:
    """The integrator's time grid rule: 0 < dt <= T, T a whole number of
    dt steps and store_every >= 1; ValueError naming the value otherwise."""
    if not 0 < dt <= T:
        raise ValueError(f"dt = {dt:g} must lie in (0, T] with T = {T:g}")
    if abs(round(T / dt) * dt - T) > 1e-9 * (1.0 + T):
        raise ValueError(f"T = {T:g} is not a whole number of dt = {dt:g} "
                         "steps")
    if store_every < 1:
        raise ValueError(f"store_every = {store_every} must be >= 1")


def record_times(dt: float, T: float, store_every: int = 1) -> np.ndarray:
    """The recorded grid: every ``store_every``-th step and the last one."""
    check_time_grid(dt, T, store_every)
    return _record_steps(int(round(T / dt)), store_every) * dt


def _record_steps(nsteps: int, store_every: int) -> np.ndarray:
    steps = list(range(0, nsteps + 1, store_every))
    if steps[-1] != nsteps:
        steps.append(nsteps)
    return np.array(steps)


def _diagonal(S: np.ndarray) -> np.ndarray | None:
    """diag(S) when S has no nonzero entry off its diagonal, else None."""
    d = np.diagonal(S)
    return d.copy() if np.count_nonzero(S) == np.count_nonzero(d) else None


def stackable(schedules: Sequence[CovarianceSchedule]) -> bool:
    """Whether the schedules can share one batch as a stack: they share
    their piece starts, and every piece is diagonal."""
    return all(np.array_equal(s.starts, schedules[0].starts)
               and np.count_nonzero(s.sigmas) == np.count_nonzero(
                   np.diagonal(s.sigmas, axis1=1, axis2=2))
               for s in schedules)


def _times_transpose(x: np.ndarray, S: np.ndarray,
                     diag: np.ndarray | None) -> np.ndarray:
    """x @ S.T, with ``diag = _diagonal(S)``: for diagonal S the
    ``x * diag + 0.0`` of the module docstring, which equals the matmul bit
    for bit on finite x, and on any x when S is 1x1."""
    if diag is None:
        return x @ S.T
    w = x * diag
    w += 0.0
    return w


def _every(mask: np.ndarray) -> bool:
    """mask.all(), without the Python-level reduction wrapper that costs
    more than the test itself on small batches."""
    return np.count_nonzero(mask) == mask.size


def _simulate_batch(model: DiffusionModel, schedule, x0s: np.ndarray,
                    dt: float, T: float, seeds: Sequence[int],
                    store_every: int, reducers=None):
    """Integrate a batch, feeding ``reducers`` at every recorded step.

    ``schedule`` is one schedule for every row, or a stack's list of
    (schedule, rows) blocks of stackable schedules, in row order.  Returns
    the ensemble's (times, states, valid_counts, exited, blowup); ``states``
    is the dense (B, R, n) record when ``reducers`` is None and an empty
    (B, 0, n) array otherwise.
    """
    n, m = model.state_dim, model.noise_dim
    B = x0s.shape[0]
    nsteps = int(round(T / dt))
    rec_steps = _record_steps(nsteps, store_every)
    times = rec_steps * dt
    rec_lookup = {int(s): i for i, s in enumerate(rec_steps)}
    recorder = None
    if reducers is None:
        recorder = StateRecorder(B, rec_steps.size, n)
        reducers = [recorder]

    z = np.array(x0s, dtype=float)
    active = np.ones(B, dtype=bool)
    all_active = True
    blowup = np.zeros(B, dtype=bool)
    valid = np.zeros(B, dtype=np.int64)  # records at which a path is active
    reducers = [*reducers,
                lambda i, t, z, alive: np.add(valid, alive, out=valid)]
    for reduce in reducers:
        reduce(0, times[0], z, active)

    # the pieces the run reaches: piece p holds on steps [starts[p], ends[p])
    blocks = ([(schedule, B)] if isinstance(schedule, CovarianceSchedule)
              else schedule)
    starts = np.rint(blocks[0][0].starts / dt).astype(np.int64)
    starts = starts[:np.searchsorted(starts, nsteps)].tolist()
    ends = starts[1:] + [nsteps]
    sigmas = [s.sigmas[:len(starts)] * math.sqrt(dt) for s, _ in blocks]
    block_rows = [rows for _, rows in blocks]
    # zero Sigma everywhere adds +0.0 and draws nothing (module docstring)
    quiet = not any(s.any() for s in sigmas)

    drift, G, domain_test = model.drift, model.noise_map, model.domain_test
    next_record = rec_lookup.get
    # Noise is step-major: slab[j] is the contiguous (B, m) block of step j.
    # Each path's chunk is drawn into a path tile (at most _TILE_ELEMS, so
    # one path's chunk always fits) and copied transposed into the slab (at
    # most _SLAB_ELEMS); the tile keeps that copy in cache.
    chunk = max(64, min(nsteps, _CHUNK_STEPS, _SLAB_ELEMS // max(B * m, 1),
                        _TILE_ELEMS // max(m, 1)))
    P = min(B, max(1, _TILE_ELEMS // max(chunk * m, 1)))
    if not quiet:
        draws = _normal_draws(seeds)
        slab = np.empty((chunk, B, m))
        tile = np.empty((P, chunk, m))
        row = np.empty((B, m))  # a diagonal piece's factor, row by row
    mapped = G is not None and not quiet

    step = piece_end = 0
    if quiet and B == 1 and model.point_drift is not None:
        _point_steps(model.point_drift, z[0], dt, nsteps, rec_lookup, times,
                     reducers, active, blowup)
        step = nsteps  # the float loop took every step
    while step < nsteps:
        c = min(chunk, nsteps - step)
        # every path draws, exited or not, so streams stay aligned with
        # per-path runs
        if not quiet:
            rows = list(tile[:, :c])  # one view per tile row, for every group
            for k0 in range(0, B, P):
                k1 = min(B, k0 + P)
                for draw, row_k in zip(draws[k0:k1], rows):
                    draw(None, _FLOAT64, row_k)  # positional: the cheapest call
                slab[:c, k0:k1] = tile[:k1 - k0, :c].transpose(1, 0, 2)
            # scale each part of the chunk that lies in one piece
            a = step
            while a < step + c:
                if a == piece_end:  # a piece begins
                    p = bisect.bisect_right(starts, a) - 1
                    piece_end, full = ends[p], sigmas[0][p]
                    diags = [_diagonal(s[p]) for s in sigmas]
                    if all(d is not None for d in diags):  # so for stacks
                        full = None
                        row[:] = np.repeat(diags, block_rows, axis=0)
                b = min(step + c, piece_end)
                if full is None:  # x * diag + 0.0 of _times_transpose
                    part = slab[a - step:b - step]
                    part *= row
                    part += 0.0
                else:
                    for j in range(a - step, b - step):
                        slab[j] = slab[j] @ full.T
                a = b
        for j in range(c):
            noise = 0.0 if quiet else slab[j]
            if mapped:
                noise = np.einsum("nm,bm->bn", G, noise)
            z_new = z + drift(z) * dt + noise
            step += 1

            # NaN and inf fail the magnitude test
            within = np.abs(z_new) <= BLOWUP_LIMIT
            inside = (None if domain_test is None
                      else np.asarray(domain_test(z_new), dtype=bool))
            if (all_active and _every(within)
                    and (inside is None or _every(inside))):
                z = z_new
            else:
                # a row failed or a path has left: exit bookkeeping on the
                # masks already computed; some path is inactive afterwards
                row_within = np.logical_and.reduce(within, axis=1)
                blowup |= active & ~row_within
                active &= row_within if inside is None else row_within & inside
                all_active = False
                z = np.where(active[:, None], z_new, z)

            ri = next_record(step)
            if ri is not None:
                for reduce in reducers:
                    reduce(ri, times[ri], z, active)

    states = np.empty((B, 0, n)) if recorder is None else recorder.states
    return times, states, valid, ~active, blowup


def _point_steps(point_drift, x0, dt, nsteps, records, times, reducers,
                 active, blowup) -> None:
    """The float loop of a quiet one-path run (module docstring), feeding
    the reducers at ``records`` (step -> index); exits as the array loop."""
    x, alive = tuple(x0.tolist()), True
    d = point_drift(x)
    for step in range(1, nsteps + 1):
        if alive:  # a path that has left keeps its last valid state
            u = tuple([xi + di * dt + 0.0 for xi, di in zip(x, d)])
            within = all([abs(ui) <= BLOWUP_LIMIT for ui in u])  # NaN fails
            d_new = point_drift(u)
            if within and d_new is not None:
                x, d = u, d_new
            else:
                alive = active[0] = False
                blowup[0] = not within
        i = records.get(step)
        if i is not None:
            z = np.array([x])
            for reduce in reducers:
                reduce(i, times[i], z, active)


def simulate_path(model: DiffusionModel, schedule: CovarianceSchedule,
                  x0, dt: float, T: float, seed: int,
                  store_every: int = 1) -> TrajectoryPath:
    """Integrate one path; a pure function of its arguments."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    _validate_sim_args(model, [schedule], x0[None], dt, T, store_every)
    times, states, valid, exited, blowup = _simulate_batch(
        model, schedule, x0[None], dt, T, [seed], store_every)
    c = int(valid[0])
    return TrajectoryPath(times=times[:c], states=states[0, :c],
                          exited_domain=bool(exited[0]), blowup=bool(blowup[0]))


def simulate_ensemble(model: DiffusionModel, schedule, x0, dt: float,
                      T: float, N, master_seed, store_every: int = 1,
                      reducers=None) -> TrajectoryEnsemble:
    """Integrate paths 0, ..., N - 1 of the master seed's ensemble in one
    batch, each with its derived path seed, from ``x0``: (n,), or (N, n)
    with row k for path k.

    With a sequence of E schedules and one of E master seeds the call
    integrates a stack (see the module docstring), one block per
    schedule, in one batch: N is then the path count of every block, or a
    sequence of E ranges of consecutive path indices, block e running the
    paths of ``N[e]`` from their rows of ``x0``.  A failed path (domain
    exit or blow-up) is retained with its exit flags.  Without
    ``reducers`` every recorded state is kept; with them (see the module
    docstring) the states go only to the reducers, which see every row of
    the batch, and the ensemble's ``states`` is an empty (B, 0, n) array.
    """
    blocks = ([schedule] if isinstance(schedule, CovarianceSchedule)
              else list(schedule))
    masters = [master_seed] if np.ndim(master_seed) == 0 else list(master_seed)
    ranged = isinstance(N, Sequence)
    paths = list(N) if ranged else [range(N)] * len(blocks)
    if not len(masters) == len(paths) == len(blocks):
        raise ValueError(f"{len(blocks)} schedules but {len(masters)} "
                         f"master seeds and {len(paths)} path ranges")
    if not all(paths):
        raise ValueError("N must be >= 1")
    x0 = np.asarray(x0, dtype=float)
    P = max(p.stop for p in paths)
    x0s = np.broadcast_to(x0, (P, model.state_dim)) if x0.ndim == 1 else x0
    if x0s.shape[1:] != (model.state_dim,) or not (
            len(x0s) >= P if ranged else len(x0s) == P):
        raise ValueError("x0 must be (n,) or (N, n), one row per path")
    x0s = np.concatenate([x0s[p.start:p.stop] for p in paths])
    _validate_sim_args(model, blocks, x0s, dt, T, store_every)
    seeds = np.concatenate([derive_path_seeds(s, p.start, p.stop)
                            for s, p in zip(masters, paths)])
    times, states, valid, exited, blowup = _simulate_batch(
        model, [(s, len(p)) for s, p in zip(blocks, paths)], x0s, dt, T,
        seeds, store_every, reducers)
    return TrajectoryEnsemble(times=times, states=states, valid_counts=valid,
                              exited=exited, blowup=blowup, dt=dt)


def _check_horizon(schedule: CovarianceSchedule, t: float) -> None:
    """A schedule covers t up to its horizon, with the 1e-9 (1 + t) slack
    of :func:`check_time_grid`; ValueError past it."""
    if t - schedule.horizon > 1e-9 * (1.0 + t):
        raise ValueError(f"t = {t:.12g} is past the schedule's horizon "
                         f"{schedule.horizon:.12g}")


def _validate_sim_args(model, schedules, x0s, dt, T, store_every):
    check_time_grid(dt, T, store_every)
    m = model.noise_dim
    for schedule in schedules:
        _check_horizon(schedule, T)
        shape = schedule.sigmas.shape[1:]
        if shape != (m, m):
            raise ValueError(f"Sigma shape {shape} != ({m}, {m}), the "
                             "model's noise_dim x noise_dim")
        t = schedule.starts  # the rule of check_time_grid, for each start
        off = np.abs(np.rint(t / dt) * dt - t) > 1e-9 * (1.0 + t)
        if off.any():
            raise ValueError(f"piece start {t[off.argmax()]:g} is not a "
                             f"whole number of dt = {dt:g} steps")
    if len(schedules) > 1 and not stackable(schedules):
        raise ValueError("a stack needs schedules with shared piece starts "
                         "and diagonal Sigma")
    if model.domain_test is not None:
        ok = np.asarray(model.domain_test(x0s), dtype=bool)
        if not ok.all():
            raise ValueError("initial state outside the model domain")
