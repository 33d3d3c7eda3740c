"""The batched generator, size-function derivatives and dissipation check
against the per-point code they replaced.

The reference below is the earlier one-state implementation, kept
verbatim: ``generator_apply`` and the inner loop of ``check_dissipation``
over the one-point ``helpers.ReferenceSizeFunction``, and the per-point
derivative formulas of the four shipped size functions.  Only the deleted ``DiffusionModel.drift_at`` and
``diffusion_at`` views became the module functions of the same names
(``diffusion_at`` now reads the model's constant noise map), and V3's phi2 slope and curvature are 0 past the ladder's h_max, where its
value is flat (the earlier formula kept the slope at the clamped h).
The batched size functions return the noise Hessian G^T hess V G, so
their Hessians are compared with the reference ones taken along the
model's noise map; the generator is compared with the full reference.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nsslab import lyapcert
from nsslab.compfun import K, KINF, ScalarClassFunction
from nsslab.langevin import (OverdampedConfig, UnderdampedConfig,
                             build_overdamped, build_smoothness_ladder,
                             build_underdamped, objective_size_function,
                             phi_functions,
                             v2_size_function, v3_size_function)
from nsslab.lyapcert import (DissipationCertificate, check_dissipation,
                             default_state_samples, default_theta_samples,
                             generator_apply)
from nsslab.objectives import (load_logistic_csv, logistic_objective,
                               quadratic_objective)
from nsslab.sde import DiffusionModel

from helpers import ReferenceSizeFunction, half_norm_squared
from test_lqr_reference import assert_bitwise


DATASET = Path(__file__).resolve().parent.parent / "configs" / "logistic_demo.csv"


# ---------------------------------------------------------------- reference

def drift_at(model, x):
    return np.asarray(model.drift(np.asarray(x, dtype=float)[None]))[0]


def diffusion_at(model, x):
    if model.noise_map is None:
        return np.eye(model.state_dim)
    return model.noise_map


def reference_generator_apply(V, model, xi, Theta) -> float:
    """Generator of the model's diffusion with noise transform Theta at xi."""
    xi = np.asarray(xi, dtype=float)
    Theta = np.atleast_2d(np.asarray(Theta, dtype=float))
    if Theta.shape != (model.noise_dim, model.noise_dim):
        raise ValueError(f"Theta must be {model.noise_dim}x{model.noise_dim}")
    grad = V.gradient_at(xi)
    drift_term = float(grad @ drift_at(model, xi))
    if not np.any(Theta):
        return drift_term
    g = diffusion_at(model, xi)
    H = V.hessian_at(xi)
    gt = g @ Theta
    noise_term = 0.5 * float(np.trace(gt.T @ H @ gt))
    return drift_term + noise_term


def reference_violations(V, model, cert, states, thetas, tol=1e-8):
    """The witness loop of check_dissipation, sorted the same way."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    violations = []
    for Theta in thetas:
        Theta = np.atleast_2d(np.asarray(Theta, dtype=float))
        s = float(np.linalg.norm(Theta @ Theta.T, 2))
        gam = float(cert.gamma(s))
        for xi in states:
            lhs = reference_generator_apply(V, model, xi, Theta)
            rhs = -float(cert.alpha(V.value_at(xi))) + gam
            if lhs > rhs + tol * (1.0 + abs(rhs)):
                violations.append((xi.copy(), Theta.copy(), lhs, rhs))
    violations.sort(key=lambda w: (w[3] - w[2], tuple(w[0])))
    return violations


def reference_third_derivative_contraction(obj, z, v):
    """d/dz of (hess J(z) v) by central differences along v."""
    vn = np.linalg.norm(v)
    if vn == 0.0:
        return np.zeros((z.size, z.size))
    eps = 1e-5 * (1.0 + np.linalg.norm(z)) / vn
    return (obj.hessian_at(z + eps * v) - obj.hessian_at(z - eps * v)) / (2.0 * eps)


def reference_objective_size_function(obj, V):
    return ReferenceSizeFunction(
        value=V.value,
        gradient=lambda z: obj.gradient_at(z),
        hessian=lambda z: obj.hessian_at(z))


def reference_half_norm_squared(V, center):
    return ReferenceSizeFunction(
        value=V.value, gradient=lambda x: np.asarray(x, dtype=float) - center,
        hessian=lambda x: np.eye(np.asarray(x).shape[-1]))


def reference_v2_size_function(config, V):
    obj = config.objective
    lam1, lam2, _ = config.lambdas
    n = obj.dim

    def gradient(x):
        z, v = x[:n], x[n:]
        g = obj.gradient_at(z)
        H = obj.hessian_at(z)
        return np.concatenate([g + lam1 * H @ v, lam1 * g + lam2 * v])

    def hessian(x):
        z, v = x[:n], x[n:]
        H = obj.hessian_at(z)
        zz = H + lam1 * reference_third_derivative_contraction(obj, z, v)
        top = np.hstack([zz, lam1 * H])
        bot = np.hstack([lam1 * H, lam2 * np.eye(n)])
        return np.vstack([top, bot])

    return ReferenceSizeFunction(value=V.value, gradient=gradient,
                                 hessian=hessian)


def reference_v3_size_function(config, V):
    obj = config.objective
    phi = config.phi
    n = obj.dim
    p2pp = np.gradient(phi.phi2_prime(phi.h_fine), phi.h_fine)

    def gradient(x):
        z, v = x[:n], x[n:]
        g = obj.gradient_at(z)
        H = obj.hessian_at(z)
        h = obj.value_at(z) - obj.optimum_value
        p2p = 0.0 if h > phi.h_max else float(phi.phi2_prime(h))
        return np.concatenate([p2p * g + H @ v, g + 2.0 * v])

    def hessian(x):
        z, v = x[:n], x[n:]
        g = obj.gradient_at(z)
        H = obj.hessian_at(z)
        h = obj.value_at(z) - obj.optimum_value
        p2p = 0.0 if h > phi.h_max else float(phi.phi2_prime(h))
        p2dd = 0.0 if h > phi.h_max else float(np.interp(h, phi.h_fine, p2pp))
        zz = p2dd * np.outer(g, g) + p2p * H \
            + reference_third_derivative_contraction(obj, z, v)
        top = np.hstack([zz, H])
        bot = np.hstack([H, 2.0 * np.eye(n)])
        return np.vstack([top, bot])

    return ReferenceSizeFunction(value=V.value, gradient=gradient,
                                 hessian=hessian)


# -------------------------------------------------------------------- cases

def quadratic():
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    return quadratic_objective(A, np.array([0.5, -1.0]))


def logistic():
    # a Hessian that varies with z, so the third-derivative term is nonzero
    return logistic_objective(load_logistic_csv(str(DATASET)))


def shipped_cases(obj):
    """(name, batched V, reference V, model) for the four size functions."""
    ocfg = OverdampedConfig(objective=obj)
    ucfg = UnderdampedConfig(objective=obj, eta=1.0, c=1.0)
    ladder = build_smoothness_ladder(obj, h_max=100.0)
    scfg = UnderdampedConfig(objective=obj, phi=phi_functions(ladder))
    sub = objective_size_function(obj)
    half = half_norm_squared(center=obj.minimizer)
    v2 = v2_size_function(ucfg)
    v3 = v3_size_function(scfg)
    return [
        ("suboptimality", sub, reference_objective_size_function(obj, sub),
         build_overdamped(ocfg)),
        ("half-norm", half, reference_half_norm_squared(half, obj.minimizer),
         build_overdamped(ocfg)),
        ("V2", v2, reference_v2_size_function(ucfg, v2),
         build_underdamped(ucfg)),
        ("V3", v3, reference_v3_size_function(scfg, v3),
         build_underdamped(scfg)),
    ]


# -------------------------------------------------------------------- tests

@pytest.fixture(scope="module", params=[quadratic, logistic],
                ids=["quadratic", "logistic"])
def cases(request):
    return shipped_cases(request.param())


@pytest.mark.parametrize("B", [1, 7, 999])
def test_batched_generator_matches_per_point_reference(cases, B):
    rng = np.random.default_rng(B)
    for name, V, ref, model in cases:
        states = default_state_samples(model.equilibrium, count=999,
                                       seed=B)[:B]
        for Theta in (0.8 * np.eye(model.noise_dim),
                      rng.standard_normal((model.noise_dim,) * 2)):
            got = generator_apply(V, model, states, Theta)
            want = np.array([reference_generator_apply(ref, model, xi, Theta)
                             for xi in states])
            assert got.shape == (B,)
            rel = np.abs(got - want) / np.abs(want)
            assert rel.max() <= 1e-12, name


def test_batched_derivatives_match_per_point_reference(cases):
    for name, V, ref, model in cases:
        states = default_state_samples(model.equilibrium, count=99, seed=4)
        _, grads, hess = V.evaluate(states, hessian=True)
        for xi, g, M in zip(states, grads, hess):
            G = diffusion_at(model, xi)
            g_ref, M_ref = ref.gradient_at(xi), G.T @ ref.hessian_at(xi) @ G
            assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.abs(g_ref).max()
            assert np.max(np.abs(M - M_ref)) <= 1e-12 * np.abs(M_ref).max()


def test_zero_theta_skips_the_noise_term(cases):
    _, V, ref, model = cases[2]
    states = default_state_samples(model.equilibrium, count=30, seed=5)
    Theta = np.zeros((model.noise_dim,) * 2)
    got = generator_apply(V, model, states, Theta)
    want = [reference_generator_apply(ref, model, xi, Theta) for xi in states]
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def half_square_reference():
    return ReferenceSizeFunction(
        value=lambda z: 0.5 * np.sum(np.square(z), axis=-1),
        gradient=lambda z: np.asarray(z, dtype=float),
        hessian=lambda z: np.eye(np.asarray(z).size))


def linear_model(n=1):
    return DiffusionModel(state_dim=n, noise_dim=n, drift=lambda z: -z,
                          equilibrium=np.zeros(n))


def too_strong_certificate():
    alpha = ScalarClassFunction(lambda r: 4.0 * np.asarray(r, float),
                                KINF, description="4r")
    gamma = ScalarClassFunction(lambda s: 0.5 * np.asarray(s, float), K,
                                description="s/2")
    return DissipationCertificate(alpha, gamma, "NSS")


def test_witnesses_match_reference_loop():
    V = half_norm_squared()
    model = linear_model()
    cert = too_strong_certificate()
    states = default_state_samples(np.zeros(1), count=300)
    thetas = default_theta_samples(1)
    got = check_dissipation(V, model, cert, states, thetas).violations
    want = reference_violations(half_square_reference(), model, cert, states,
                                thetas)
    assert len(got) == len(want) > 0
    for (xi, Th, lhs, rhs), (xi_r, Th_r, lhs_r, rhs_r) in zip(got, want):
        assert np.array_equal(xi, xi_r) and np.array_equal(Th, Th_r)
        assert abs(lhs - lhs_r) <= 1e-12 * (1.0 + abs(lhs_r))
        assert abs(rhs - rhs_r) <= 1e-12 * (1.0 + abs(rhs_r))
        assert isinstance(lhs, float) and isinstance(rhs, float)


# ------------------------------------------------------------- call counts

def test_one_generator_call_per_theta(monkeypatch):
    batches = []
    inner = lyapcert.generator_apply

    def recording(V, model, states, Theta):
        batches.append(np.shape(states))
        return inner(V, model, states, Theta)

    monkeypatch.setattr(lyapcert, "generator_apply", recording)
    states = default_state_samples(np.zeros(1), count=300)
    thetas = default_theta_samples(1)
    out = check_dissipation(half_norm_squared(), linear_model(),
                            too_strong_certificate(), states, thetas)
    assert out.violations
    assert batches == [states.shape] * len(thetas)


@pytest.mark.parametrize("make", [quadratic, logistic],
                         ids=["quadratic", "logistic"])
def test_momentum_size_functions_make_one_joint_pass(make):
    # one objective pass, a value, gradient and Hessian call, gives the
    # values, the gradients and the noise Hessians; the values are
    # V.value's bit for bit
    obj = make()
    calls = dict.fromkeys(("value", "gradient", "hessian"), 0)

    def counted(kind, fn):
        def oracle(z):
            calls[kind] += 1
            return fn(z)
        return oracle

    counting = replace(obj, **{k: counted(k, getattr(obj, k))
                               for k in calls})
    ucfg = UnderdampedConfig(objective=counting, eta=1.0, c=1.0)
    scfg = replace(ucfg, phi=phi_functions(build_smoothness_ladder(
        obj, h_max=100.0)))
    x = default_state_samples(np.zeros(2 * obj.dim), count=99, seed=9)
    for V in (v2_size_function(ucfg), v3_size_function(scfg)):
        calls.update(dict.fromkeys(calls, 0))
        values = V.evaluate(x, hessian=True)[0]
        assert calls == {"value": 1, "gradient": 1, "hessian": 1}
        assert np.array_equal(values, V.value(x))
        assert np.array_equal(np.signbit(values), np.signbit(V.value(x)))


@pytest.mark.parametrize("make", [quadratic, logistic],
                         ids=["quadratic", "logistic"])
def test_momentum_values_equal_evaluate_for_any_leading_shape(make):
    # value takes one state, an (S, 2n) batch or an (R, S, 2n) stack, and
    # each row is the value evaluate gives it, bit for bit
    obj = make()
    ucfg = UnderdampedConfig(objective=obj, eta=1.0, c=1.0)
    scfg = replace(ucfg, phi=phi_functions(build_smoothness_ladder(
        obj, h_max=100.0)))
    x = default_state_samples(np.zeros(2 * obj.dim), count=99, seed=4)
    for V in (v2_size_function(ucfg), v3_size_function(scfg)):
        want = V.evaluate(x)[0]
        one = V.value(x[5])
        assert isinstance(one, float)
        assert_bitwise(np.array([one]), want[5:6])
        assert_bitwise(V.value(x), want)
        assert_bitwise(V.value(x.reshape(3, 33, -1)), want.reshape(3, 33))
