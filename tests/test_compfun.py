"""Unit tests for the comparison-function toolkit."""

import numpy as np
import pytest

from nsslab.compfun import (PD, BracketError, DomainViolation, K, K_ON_0_D,
                            KINF, ScalarClassFunction, classify_evidence,
                            from_table, invert, invert_auto)


def sqrt_fn():
    return ScalarClassFunction(eval=np.sqrt, declared_class=KINF,
                               description="sqrt")


def saturating_fn():
    return ScalarClassFunction(eval=lambda s: s / (1.0 + s),
                               declared_class=K, description="s/(1+s)")


def catalog():
    """Named PD/K/Kinf functions whose classes are known by construction."""
    return [ScalarClassFunction(lambda r: np.asarray(r, dtype=float) + 0.0,
                                KINF, description="Id"),
            ScalarClassFunction(np.square, KINF, description="r^2"),
            sqrt_fn(),
            ScalarClassFunction(lambda r: 2.0 * np.asarray(r, dtype=float),
                                KINF, description="2r"),
            ScalarClassFunction(np.log1p, KINF, description="log(1+r)"),
            saturating_fn(),
            ScalarClassFunction(np.arctan, K, description="atan(r)"),
            ScalarClassFunction(lambda r: np.square(r) / (1.0 + np.square(r)),
                                PD, description="r^2/(1+r^2)")]


class TestScalarClassFunction:
    def test_vectorized_eval(self):
        f = sqrt_fn()
        out = f(np.array([0.0, 1.0, 4.0]))
        assert np.allclose(out, [0.0, 1.0, 2.0])

    def test_zero_maps_to_zero(self):
        for f in catalog():
            assert abs(float(f(0.0))) <= 1e-12

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainViolation):
            sqrt_fn()(-1.0)

    def test_bounded_domain_enforced(self):
        f = ScalarClassFunction(eval=lambda s: s, declared_class=K_ON_0_D,
                                d=2.0, description="id on [0,2)")
        assert float(f(1.0)) == 1.0
        with pytest.raises(DomainViolation):
            f(3.0)


class TestClassifyEvidence:
    def test_kinf_on_unbounded_increasing(self):
        report = classify_evidence(sqrt_fn(), np.linspace(0.0, 100.0, 200))
        assert report.consistent

    def test_saturating_kinf_claim_falsified(self):
        f = ScalarClassFunction(eval=lambda s: s / (1.0 + s),
                                declared_class=KINF, description="bad claim")
        report = classify_evidence(f, np.linspace(0.0, 1e6, 400))
        assert not report.consistent
        assert report.unbounded_flag

    def test_nonmonotone_k_claim_falsified(self):
        f = ScalarClassFunction(eval=lambda s: np.sin(np.minimum(s, np.pi)),
                                declared_class=K, description="bump")
        report = classify_evidence(f, np.linspace(0.0, 4.0, 100))
        assert not report.consistent
        assert report.monotonicity_violations


class TestInvert:
    def test_inverse_of_sqrt(self):
        x = invert(sqrt_fn(), 3.0, bracket_hi=100.0)
        assert abs(x - 9.0) <= 1e-8

    def test_auto_bracket(self):
        x = invert_auto(sqrt_fn(), 7.0)
        assert abs(x - 49.0) <= 1e-6

    def test_unreachable_value_raises(self):
        with pytest.raises(BracketError):
            invert(saturating_fn(), 2.0, bracket_hi=1e12)

    def test_roundtrip_on_catalog(self):
        for f in catalog():
            if f.declared_class != KINF:
                continue
            y = float(f(2.5))
            assert abs(float(f(invert_auto(f, y))) - y) <= 1e-8 * max(1.0, y)


class TestFromTable:
    def test_interpolates_linearly(self):
        f = from_table(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 3.0]))
        assert abs(float(f(0.5)) - 1.0) <= 1e-12
        assert abs(float(f(1.5)) - 2.5) <= 1e-12

    def test_clamps_to_last_value(self):
        f = from_table(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert float(f(10.0)) == 1.0

