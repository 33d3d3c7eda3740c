"""Unit tests for generator evaluation and dissipation certificates."""

import numpy as np
import pytest

from nsslab.compfun import (K, K_ON_0_D, KINF, DomainViolation,
                            ScalarClassFunction)
from nsslab.lyapcert import (AdmissibilityError, DissipationCertificate,
                             SizeFunction, check_dissipation,
                             default_state_samples, default_theta_samples,
                             entry_exit_times, generator_apply,
                             self_values, set_D_threshold)
from nsslab.nssmc import Supermartingale
from nsslab.sde import CovarianceSchedule, DiffusionModel, simulate_ensemble

from helpers import ReferenceSizeFunction
from test_nssmc_reference import reference_supermartingale_diagnostic


def half_square():
    def evaluate(z, hessian=False):
        z = np.asarray(z, dtype=float)
        H = np.repeat(np.eye(z.shape[1])[None], len(z), axis=0)
        return 0.5 * np.sum(np.square(z), axis=-1), z, H if hessian else None

    return SizeFunction(value=lambda z: 0.5 * np.sum(np.square(z), axis=-1),
                        evaluate=evaluate)


def linear_model(n=1):
    return DiffusionModel(state_dim=n, noise_dim=n, drift=lambda z: -z,
                          equilibrium=np.zeros(n))


class TestSizeFunction:
    def test_fd_gradient_matches_analytic(self):
        V = half_square()
        fd = ReferenceSizeFunction(value=V.value)
        for xi in (np.array([0.3, -1.2]), np.array([5.0, 0.0])):
            g = V.gradient_at(xi)
            gf = fd.gradient_at(xi)
            assert np.max(np.abs(g - gf)) <= 1e-4 * (1.0 + np.abs(g).max())

    def test_fd_hessian_matches_analytic(self):
        V = half_square()
        fd = ReferenceSizeFunction(value=V.value)
        xi = np.array([0.7, -0.4])
        assert np.max(np.abs(V.hessian_at(xi) - fd.hessian_at(xi))) <= 1e-4


class TestGeneratorApply:
    def test_closed_form_scalar(self):
        # V = z^2/2, drift -z, Theta = sigma: L[V] = -z^2 + sigma^2/2
        V = half_square()
        m = linear_model()
        for z, sig in [(1.5, 0.0), (1.5, 0.5), (-0.3, 2.0)]:
            got = generator_apply(V, m, np.array([z]), np.array([[sig]]))
            want = -z**2 + 0.5 * sig**2
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_theta_shape_checked(self):
        with pytest.raises(ValueError):
            generator_apply(half_square(), linear_model(), np.ones(1),
                            np.eye(2))


class TestCertificateKinds:
    def alpha_kinf(self):
        return ScalarClassFunction(lambda r: 2.0 * np.asarray(r, float), KINF,
                                   description="2r")

    def gamma_k(self):
        return ScalarClassFunction(lambda s: 0.5 * np.asarray(s, float), K,
                                   description="s/2")

    def test_nss_accepts_kinf_alpha(self):
        DissipationCertificate(self.alpha_kinf(), self.gamma_k(), "NSS")

    def test_nss_rejects_pd_alpha(self):
        bad = ScalarClassFunction(lambda r: np.square(r) / (1 + np.square(r)),
                                  "PD", description="bounded")
        with pytest.raises(ValueError):
            DissipationCertificate(bad, self.gamma_k(), "NSS")

    def test_scnss_needs_finite_cap(self):
        gamma_d = ScalarClassFunction(lambda s: np.asarray(s, float),
                                      K_ON_0_D, d=4.0, description="id<4")
        with pytest.raises(ValueError):
            DissipationCertificate(self.alpha_kinf(), gamma_d, "scNSS")
        DissipationCertificate(self.alpha_kinf(), gamma_d, "scNSS", d=4.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DissipationCertificate(self.alpha_kinf(), self.gamma_k(), "GAS")


class TestCheckDissipation:
    def make_cert(self):
        alpha = ScalarClassFunction(lambda r: 2.0 * np.asarray(r, float),
                                    KINF, description="2r")
        gamma = ScalarClassFunction(lambda s: 0.5 * np.asarray(s, float), K,
                                    description="s/2")
        return DissipationCertificate(alpha, gamma, "NSS")

    def test_valid_certificate_has_no_violations(self):
        # -z^2 + sig^2/2 <= -2(z^2/2) + sig^2/2 holds with equality
        out = check_dissipation(half_square(), linear_model(),
                                self.make_cert(),
                                default_state_samples(np.zeros(1), count=300),
                                default_theta_samples(1))
        assert out.violations == []

    def test_too_strong_alpha_is_falsified(self):
        alpha = ScalarClassFunction(lambda r: 4.0 * np.asarray(r, float),
                                    KINF, description="4r")
        gamma = ScalarClassFunction(lambda s: 0.5 * np.asarray(s, float), K,
                                    description="s/2")
        cert = DissipationCertificate(alpha, gamma, "NSS")
        out = check_dissipation(half_square(), linear_model(), cert,
                                default_state_samples(np.zeros(1), count=300),
                                default_theta_samples(1))
        assert out.violations

    def test_input_certificate_unmodified(self):
        cert = self.make_cert()
        check_dissipation(half_square(), linear_model(), cert,
                          np.ones((5, 1)), default_theta_samples(1))
        assert cert.violations == []

    def test_scnss_cap_enforced_on_thetas(self):
        alpha = ScalarClassFunction(lambda r: 2.0 * np.asarray(r, float),
                                    KINF, description="2r")
        gamma = ScalarClassFunction(lambda s: np.asarray(s, float), K_ON_0_D,
                                    d=0.5, description="id<0.5")
        cert = DissipationCertificate(alpha, gamma, "scNSS", d=0.5)
        with pytest.raises(DomainViolation):
            check_dissipation(half_square(), linear_model(), cert,
                              np.ones((2, 1)), [np.eye(1)])


class TestSetDThreshold:
    def alpha(self):
        return ScalarClassFunction(lambda r: np.asarray(r, float), KINF,
                                   description="id")

    def gamma(self):
        return ScalarClassFunction(lambda s: 0.5 * np.asarray(s, float), KINF,
                                   description="s/2")

    def test_level_closed_form(self):
        # alpha = id, gamma = s/2, c = 2: level = 2 * (sup/2) = sup
        out = set_D_threshold(self.alpha(), self.gamma(), c=2.0,
                              sup_intensity=0.3)
        assert abs(out.level - 0.3) <= 1e-8

    def test_zero_intensity_gives_zero_level(self):
        out = set_D_threshold(self.alpha(), self.gamma(), c=2.0,
                              sup_intensity=0.0)
        assert out.level == 0.0

    def test_small_covariance_admissibility(self):
        gamma_d = ScalarClassFunction(lambda s: np.asarray(s, float),
                                      K_ON_0_D, d=1.0, description="id<1")
        with pytest.raises(AdmissibilityError):
            set_D_threshold(self.alpha(), gamma_d, c=2.0, sup_intensity=0.9,
                            bracket=0.99, small_covariance=True)

    def test_saturating_gamma_has_no_cap(self):
        gamma = ScalarClassFunction(lambda s: 1.0 - np.exp(-np.asarray(s, float)),
                                    K, description="1 - exp(-s)")
        out = set_D_threshold(self.alpha(), gamma, c=2.0, sup_intensity=0.3)
        assert out.d1 == np.inf
        assert abs(out.level - 2.0 * (1.0 - np.exp(-0.3))) <= 1e-8

    def test_gamma_error_propagates(self):
        def fails_past_one(s):
            if np.any(np.asarray(s) > 1.0):
                raise RuntimeError("gamma evaluation failed")
            return 0.5 * np.asarray(s, float)

        gamma = ScalarClassFunction(fails_past_one, KINF, description="s/2")
        with pytest.raises(RuntimeError):
            set_D_threshold(self.alpha(), gamma, c=2.0, sup_intensity=0.3)

    def test_c_must_exceed_one(self):
        with pytest.raises(ValueError):
            set_D_threshold(self.alpha(), self.gamma(), c=1.0,
                            sup_intensity=0.1)


class TestEntryExit:
    def test_intervals_on_synthetic_path(self):
        from nsslab.sde import TrajectoryPath
        states = np.array([[2.0], [0.5], [0.3], [1.8], [0.2]])
        path = TrajectoryPath(times=np.arange(5.0), states=states)
        V = half_square()
        # V = 2, 0.125, 0.045, 1.62, 0.02; threshold 0.5
        out = entry_exit_times(path, V, 0.5)
        assert out == [(1, 3), (4, None)]


class TestSupermartingale:
    """The live reducer, checked against the dense diagnostic it replaced
    on the same recorded paths."""

    def flags(self, m):
        s = CovarianceSchedule.constant(np.array([[0.1]]), horizon=5.0)
        args = (m, s, np.full(1, 3.0), 1e-2, 5.0, 400, 0)
        red = Supermartingale(half_square(), threshold=0.5)
        simulate_ensemble(*args, store_every=10, reducers=[red])
        ens = simulate_ensemble(*args, store_every=10)
        rep = reference_supermartingale_diagnostic(ens, half_square(),
                                                   threshold=0.5)
        assert red.flags == rep.flags
        return rep

    def test_contracting_ensemble_clean(self):
        assert self.flags(linear_model()).clean

    def test_expanding_drift_flagged(self):
        m = DiffusionModel(state_dim=1, noise_dim=1, drift=lambda z: 0.5 * z,
                           equilibrium=np.zeros(1))
        assert not self.flags(m).clean


class TestSamplers:
    def test_state_samples_deterministic(self):
        a = default_state_samples(np.zeros(2), count=90, seed=5)
        b = default_state_samples(np.zeros(2), count=90, seed=5)
        assert np.array_equal(a, b)
        assert a.shape == (90, 2)

    def test_theta_cap_respected(self):
        thetas = default_theta_samples(2, cap=4.0)
        tops = [np.linalg.norm(T @ T.T, 2) for T in thetas]
        assert max(tops) <= 0.9 * 4.0 + 1e-12

    def test_self_values_shapes(self):
        V = half_square()
        states = np.ones((3, 4, 2))
        assert self_values(V, states).shape == (3, 4)
