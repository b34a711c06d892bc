import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from photonpressure.circuit import (elliptic_k, external_linewidth, idc_capacitance,
                                    infer_inductance, mutual_inductance,
                                    parallel_plate_capacitance, zero_point_current)
from photonpressure.errors import DomainError

TWO_PI = 2 * math.pi

positive = st.floats(min_value=1e-15, max_value=1e6, allow_nan=False,
                     allow_infinity=False)


def plate_spec(**overrides):
    """Keyword arguments of ``parallel_plate_capacitance`` for the device plate."""
    base = dict(plate_area=7.68e-7, dielectric_thickness=130e-9,
                relative_permittivity=11.8)
    base.update(overrides)
    return base


class TestParallelPlate:
    def test_device_value(self):
        # eps0 * 11.8 * 7.68e-7 / 130e-9, quoted as roughly 620 pF
        c = parallel_plate_capacitance(**plate_spec())
        assert c == pytest.approx(6.172322437622548e-10, rel=1e-12)
        assert c == pytest.approx(620e-12, rel=0.01)

    def test_vanishing_area(self):
        c_small = parallel_plate_capacitance(**plate_spec(plate_area=1e-30))
        assert c_small == pytest.approx(0.0, abs=1e-30)

    def test_linearity_in_area(self):
        c1 = parallel_plate_capacitance(**plate_spec())
        c2 = parallel_plate_capacitance(**plate_spec(plate_area=2 * 7.68e-7))
        assert c2 == pytest.approx(2 * c1, rel=1e-14)

    def test_bad_thickness_rejected(self):
        with pytest.raises(DomainError):
            parallel_plate_capacitance(**plate_spec(dielectric_thickness=0.0))


class TestEllipticK:
    def test_agm_matches_series_at_small_modulus(self):
        # K(k) = pi/2 * (1 + k^2/4 + 9 k^4/64 + ...) for small k
        k = 1e-3
        series = math.pi / 2 * (1 + k**2 / 4 + 9 * k**4 / 64)
        assert elliptic_k(k) == pytest.approx(series, rel=1e-12)

    def test_zero_modulus(self):
        assert elliptic_k(0.0) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_invalid_modulus(self):
        with pytest.raises(DomainError):
            elliptic_k(1.0)


def idc_spec(**overrides):
    """Keyword arguments of ``idc_capacitance`` for the device capacitor."""
    base = dict(finger_count=90, finger_length=100e-6, finger_width=1e-6,
                gap_width=1e-6, effective_permittivity=(11.8 + 1) / 2)
    base.update(overrides)
    return base


class TestIdcCapacitance:
    def test_device_value(self):
        c = idc_capacitance(**idc_spec())
        assert c == pytest.approx(5.068254612513124e-13, rel=1e-12)
        assert c == pytest.approx(507e-15, rel=0.01)

    def test_equal_width_and_gap_inner_term(self):
        # a == b makes k1 = sin(pi/4) its own complement, so K-ratio is 1 and
        # the interior unit capacitance is exactly 2*eps0*eps_eff*l
        from photonpressure.constants import epsilon_0
        spec = idc_spec(finger_count=5)
        c1_exact = 2 * epsilon_0 * spec["effective_permittivity"] * spec["finger_length"]
        c3 = idc_capacitance(**idc_spec(finger_count=3))
        c5 = idc_capacitance(**idc_spec(finger_count=5))
        assert c5 - c3 == pytest.approx(c1_exact, rel=1e-10)

    def test_three_fingers_drops_interior_term(self):
        # N = 3 leaves only the series combination of the two edge fingers
        from photonpressure.constants import epsilon_0
        spec = idc_spec(finger_count=3)
        c1 = 2 * epsilon_0 * spec["effective_permittivity"] * spec["finger_length"]
        k2 = 2 * math.sqrt(1e-6 * 2e-6) / 3e-6
        c2 = c1 * elliptic_k(k2) / elliptic_k(math.sqrt(1 - k2**2))
        assert idc_capacitance(**spec) == pytest.approx(2 * c1 * c2 / (c1 + c2), rel=1e-12)

    def test_too_few_fingers(self):
        with pytest.raises(DomainError):
            idc_capacitance(**idc_spec(finger_count=2))

    @given(n=st.integers(min_value=3, max_value=200))
    def test_monotone_in_finger_count(self, n):
        assert idc_capacitance(**idc_spec(finger_count=n + 1)) > idc_capacitance(
            **idc_spec(finger_count=n))

    @given(scale=st.floats(min_value=1.01, max_value=10))
    def test_monotone_in_finger_length(self, scale):
        base = idc_capacitance(**idc_spec())
        longer = idc_capacitance(**idc_spec(finger_length=scale * 100e-6))
        assert longer > base


class TestLcAlgebra:
    def test_hf_inductance(self):
        # 742 pH with the quoted rounded capacitance, 730 pH from the chain
        l_rounded = infer_inductance(TWO_PI * 5.844e9, 1.01e-12, 2e-15)
        assert l_rounded == pytest.approx(742e-12, rel=0.02)

    def test_lf_inductance(self):
        l = infer_inductance(TWO_PI * 391e6, 620e-12, 434e-15)
        assert l == pytest.approx(267e-12, rel=0.01)

    @given(frequency=positive, capacitance=positive)
    def test_resonance_condition(self, frequency, capacitance):
        # L * C * omega^2 = 1 for the inferred inductance
        inductance = infer_inductance(frequency, capacitance, 0.0)
        assert inductance * capacitance * frequency**2 == pytest.approx(1.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            infer_inductance(0.0, 1e-12, 0.0)
        with pytest.raises(DomainError):
            infer_inductance(TWO_PI * 1e9, -1e-12, 0.0)
        # a negative coupling capacitor is refused however large the capacitor
        with pytest.raises(DomainError, match="coupling capacitance must be >= 0"):
            infer_inductance(TWO_PI * 1e9, 1e-12, -2e-12)


class TestExternalLinewidth:
    def test_lf_value(self):
        rate = external_linewidth(50.0, 434e-15, 267e-12, 620e-12)
        assert rate == pytest.approx(TWO_PI * 14.5e3, rel=0.02)

    def test_hf_value(self):
        rate = external_linewidth(50.0, 2e-15, 742e-12, 1.01e-12)
        assert rate == pytest.approx(TWO_PI * 43e3, rel=0.05)

    def test_decoupled_feedline(self):
        assert external_linewidth(50.0, 0.0, 267e-12, 620e-12) == 0.0

    @given(z0=positive, cc=positive, ind=positive, cap=positive)
    def test_scaling_in_impedance(self, z0, cc, ind, cap):
        one = external_linewidth(z0, cc, ind, cap)
        two = external_linewidth(2 * z0, cc, ind, cap)
        assert two == pytest.approx(2 * one, rel=1e-12)

    @given(cc=st.floats(min_value=1e-3, max_value=1e3),
           ind=positive, cap=st.floats(min_value=1e-3, max_value=1e3))
    def test_quadratic_in_coupling_for_fixed_total(self, cc, ind, cap):
        # compare at fixed total capacitance so the pure Cc^2 scaling shows
        total = cap + 2 * cc
        one = external_linewidth(50.0, cc, ind, total - cc)
        two = external_linewidth(50.0, 2 * cc, ind, total - 2 * cc)
        assert two == pytest.approx(4 * one, rel=1e-12)


class TestZeroPointCurrent:
    def test_device_value_from_formula(self):
        # sqrt(hbar * 2pi*391 MHz / (2 * 267 pH)): the formula gives 22.0 nA
        # (the rounded 21 nA quoted for the device is 4.9% below this)
        i = zero_point_current(267e-12, TWO_PI * 391e6)
        assert i == pytest.approx(2.2026513767e-8, rel=1e-9)

    @given(inductance=positive, frequency=positive)
    def test_quadrupling_l_halves_izpf(self, inductance, frequency):
        assert zero_point_current(4 * inductance, frequency) == pytest.approx(
            zero_point_current(inductance, frequency) / 2, rel=1e-12)

    @given(inductance=positive, frequency=positive)
    def test_defining_relation(self, inductance, frequency):
        from photonpressure.constants import hbar
        i = zero_point_current(inductance, frequency)
        assert i**2 * 2 * inductance == pytest.approx(hbar * frequency, rel=1e-12)


class TestMutualInductance:
    def test_device_value_from_formula(self):
        # 3 * (mu0/2pi) * 10um * ln(11) = 14.39 pH (quoted rounded to 14)
        m = mutual_inductance(10e-6, 1e-6, 11e-6)
        assert m == pytest.approx(1.4387371634890622e-11, rel=1e-12)

    def test_zero_extent(self):
        assert mutual_inductance(10e-6, 5e-6, 5e-6 + 1e-20) == pytest.approx(0.0, abs=1e-25)

    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            mutual_inductance(10e-6, 2e-6, 1e-6)


class TestDerivedResonator:
    def test_full_lf_chain(self):
        # the chain ``params`` runs: plate capacitance, inductance from the
        # measured frequency, feedline rate
        capacitance = parallel_plate_capacitance(**plate_spec())
        inductance = infer_inductance(TWO_PI * 391e6, capacitance, 434e-15)
        rate = external_linewidth(50.0, 434e-15, inductance, capacitance)
        assert capacitance == pytest.approx(617.2e-12, rel=1e-3)
        assert inductance == pytest.approx(268.2e-12, rel=1e-3)
        assert rate == pytest.approx(TWO_PI * 14.65e3, rel=1e-3)


def test_constants_are_codata_2022():
    from photonpressure import constants

    assert constants.epsilon_0 == 8.8541878188e-12
    assert constants.hbar == 1.0545718176461565e-34
    assert constants.k_B == 1.380649e-23
    assert constants.mu_0 == 1.25663706127e-06
