import math
import random

import numpy as np
import pytest

from triphoton.constants import SPEED_OF_LIGHT
from triphoton.pathgeom import (CentralFrequencies, PathConfiguration,
                                ReducedParameters, SourceKind, carrier_omegas,
                                carrier_wavenumbers,
                                cpdc_freq_inverse, cpdc_freq_transform,
                                reduce_cpdc, reduce_topdc, topdc_freq_inverse,
                                topdc_freq_transform)

_LENGTHS = ("l_a1", "l_b1", "l_c1", "l_p1", "l_a2", "l_b2", "l_c2", "l_p2")
_PHASES = ("phi_a1", "phi_b1", "phi_c1", "phi_p1",
           "phi_a2", "phi_b2", "phi_c2", "phi_p2")


def random_config(rng, length_scale=1.0):
    return PathConfiguration(
        **{k: rng.uniform(0.0, length_scale) for k in _LENGTHS},
        **{k: rng.uniform(-math.pi, math.pi) for k in _PHASES})


def add_configs(p, q):
    return PathConfiguration(
        **{k: getattr(p, k) + getattr(q, k) for k in _LENGTHS},
        **{k: getattr(p, k) + getattr(q, k) for k in _PHASES})


def shift_lengths(p, s):
    return PathConfiguration(
        **{k: getattr(p, k) + s for k in _LENGTHS},
        **{k: getattr(p, k) for k in _PHASES})


class TestCpdcReduction:
    def test_symmetric_config_reduces_to_zero(self):
        p = PathConfiguration(**{k: 2.0 for k in _LENGTHS},
                              **{k: 0.7 for k in _PHASES})
        r = reduce_cpdc(p)
        assert (r.delta_l, r.delta_l_prime, r.delta_l_dprime, r.delta_phi) \
            == (0.0, 0.0, 0.0, 0.0)

    def test_single_a_arm(self):
        # hand substitution: l_a1 = 2 m contributes 2/2 = 1 to both dL and dL'
        r = reduce_cpdc(PathConfiguration(l_a1=2.0))
        assert (r.delta_l, r.delta_l_prime, r.delta_l_dprime) == (1.0, 1.0, 0.0)

    def test_single_b_arm(self):
        # l_b1 = 4 m: dL += 4/4, dL' -= 4/4, dL'' += 4/2
        r = reduce_cpdc(PathConfiguration(l_b1=4.0))
        assert (r.delta_l, r.delta_l_prime, r.delta_l_dprime) == (1.0, -1.0, 2.0)


class TestTopdcReduction:
    def test_symmetric_config_reduces_to_zero(self):
        p = PathConfiguration(**{k: 1.5 for k in _LENGTHS})
        for choice in (1, 2, 3):
            r = reduce_topdc(p, choice)
            assert (r.delta_l, r.delta_l_prime, r.delta_l_dprime) == (0.0, 0.0, 0.0)

    def test_single_a_arm_choice1(self):
        r = reduce_topdc(PathConfiguration(l_a1=3.0), 1)
        assert (r.delta_l, r.delta_l_prime, r.delta_l_dprime) == (1.0, 3.0, 3.0)

    def test_single_a_arm_choice2(self):
        r = reduce_topdc(PathConfiguration(l_a1=3.0), 2)
        assert (r.delta_l, r.delta_l_prime, r.delta_l_dprime) == (1.0, -3.0, 0.0)

    def test_delta_l_identical_across_choices(self):
        rng = random.Random(7)
        for _ in range(50):
            p = random_config(rng)
            dls = {reduce_topdc(p, c).delta_l for c in (1, 2, 3)}
            assert len(dls) == 1  # bitwise identical

    def test_bad_choice(self):
        with pytest.raises(ValueError):
            reduce_topdc(PathConfiguration(), 4)


@pytest.mark.parametrize("reducer", [
    reduce_cpdc,
    lambda p: reduce_topdc(p, 1),
    lambda p: reduce_topdc(p, 2),
    lambda p: reduce_topdc(p, 3),
])
class TestReductionProperties:
    def test_linearity(self, reducer):
        rng = random.Random(11)
        for _ in range(200):
            p, q = random_config(rng), random_config(rng)
            rp, rq, rs = reducer(p), reducer(q), reducer(add_configs(p, q))
            assert rs.delta_l == pytest.approx(rp.delta_l + rq.delta_l, abs=1e-12)
            assert rs.delta_l_prime == pytest.approx(
                rp.delta_l_prime + rq.delta_l_prime, abs=1e-12)
            assert rs.delta_l_dprime == pytest.approx(
                rp.delta_l_dprime + rq.delta_l_dprime, abs=1e-12)

    def test_global_shift_invariance(self, reducer):
        rng = random.Random(13)
        for _ in range(200):
            p = random_config(rng)
            r0, r1 = reducer(p), reducer(shift_lengths(p, rng.uniform(0.0, 5.0)))
            assert r1.delta_l == pytest.approx(r0.delta_l, abs=1e-12)
            assert r1.delta_l_prime == pytest.approx(r0.delta_l_prime, abs=1e-12)
            assert r1.delta_l_dprime == pytest.approx(r0.delta_l_dprime, abs=1e-12)


class TestValidation:
    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            PathConfiguration(l_a1=-1.0)

    def test_nonfinite_phase_rejected(self):
        with pytest.raises(ValueError):
            PathConfiguration(phi_b2=math.nan)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            CentralFrequencies(0.0, 1.0, 1.0)


class TestCarriers:
    def test_cpdc_sum_identity(self):
        rng = random.Random(3)
        for _ in range(100):
            f = CentralFrequencies(rng.uniform(1e14, 3e15), rng.uniform(1e14, 3e15),
                                   rng.uniform(1e14, 3e15))
            kp, _, _ = carrier_wavenumbers(f, SourceKind.CPDC)
            ka = f.omega_a0 / SPEED_OF_LIGHT
            kb = f.omega_b0 / SPEED_OF_LIGHT
            kc = f.omega_c0 / SPEED_OF_LIGHT
            assert kp == pytest.approx(ka + kb + kc, rel=1e-15)

    def test_cpdc_degenerate_bc_kills_dprime_carrier(self):
        f = CentralFrequencies(2.0e15, 1.0e15, 1.0e15)
        _, k1, k2 = carrier_wavenumbers(f, SourceKind.CPDC)
        assert k2 == 0.0
        assert k1 == 0.0  # omega_a0 equals omega_b0 + omega_c0 here

    def test_topdc_degenerate_thirds_kill_both_carriers(self):
        # exact centers of the collective detuning coordinates vanish when
        # all three photons sit at the same frequency
        f = CentralFrequencies(1.0e15, 1.0e15, 1.0e15)
        for choice in (1, 2, 3):
            _, k1, k2 = carrier_wavenumbers(f, SourceKind.TOPDC, choice)
            assert k1 == 0.0
            assert k2 == 0.0

    def test_cpdc_rejects_other_choices(self):
        f = CentralFrequencies(1.0e15, 1.0e15, 1.0e15)
        with pytest.raises(ValueError):
            carrier_omegas(f, SourceKind.CPDC, 2)

    def test_cosine_argument_identical_across_topdc_choices(self):
        # frequencies scaled so the wave numbers are O(1) and rounding is
        # far below the asserted tolerance
        rng = random.Random(17)
        for _ in range(100):
            p = random_config(rng)
            f = CentralFrequencies(rng.uniform(0.5, 2.0) * SPEED_OF_LIGHT,
                                   rng.uniform(0.5, 2.0) * SPEED_OF_LIGHT,
                                   rng.uniform(0.5, 2.0) * SPEED_OF_LIGHT)
            args = []
            for choice in (1, 2, 3):
                r = reduce_topdc(p, choice)
                kp, k1, k2 = carrier_wavenumbers(f, SourceKind.TOPDC, choice)
                args.append(kp * r.delta_l + k1 * r.delta_l_prime
                            + k2 * r.delta_l_dprime + r.delta_phi)
            scale = max(1.0, abs(args[0]))
            assert abs(args[1] - args[0]) <= 1e-12 * scale
            assert abs(args[2] - args[0]) <= 1e-12 * scale

    def test_individual_tuples_differ_across_choices(self):
        p = PathConfiguration(l_a1=3.0)
        r1, r2 = reduce_topdc(p, 1), reduce_topdc(p, 2)
        assert (r1.delta_l_prime, r1.delta_l_dprime) \
            != (r2.delta_l_prime, r2.delta_l_dprime)


class TestFrequencyTransforms:
    def test_cpdc_point_example(self):
        assert cpdc_freq_transform(4.0, 0.0, 0.0) == (2.0, 1.0, 1.0)

    def test_topdc_point_examples(self):
        assert topdc_freq_transform(3.0, 0.0, 0.0) == (1.0, 1.0, 1.0)
        assert topdc_freq_transform(3.0, 1.5, 0.0) == (2.0, 0.0, 1.0)

    @pytest.mark.parametrize("fwd,inv", [
        (cpdc_freq_transform, cpdc_freq_inverse),
        (topdc_freq_transform, topdc_freq_inverse),
    ])
    def test_round_trip(self, fwd, inv):
        rng = np.random.default_rng(5)
        triples = rng.uniform(-10, 10, size=(10_000, 3))
        a, b, c = fwd(triples[:, 0], triples[:, 1], triples[:, 2])
        back = np.column_stack(inv(a, b, c))
        err = np.abs(back - triples) / np.maximum(1.0, np.abs(triples))
        assert err.max() <= 1e-12

    @pytest.mark.parametrize("fwd,expected", [
        (cpdc_freq_transform, 0.25),
        (topdc_freq_transform, 4.0 / 9.0),
    ])
    def test_jacobian_against_numeric_determinant(self, fwd, expected):
        # build the matrix by pushing unit vectors through the linear map
        cols = [fwd(*e) for e in np.eye(3)]
        mat = np.array(cols).T
        assert abs(abs(np.linalg.det(mat)) - expected) <= 1e-12


@pytest.mark.parametrize("field", ["delta_l", "delta_l_prime", "delta_l_dprime",
                                   "delta_phi"])
def test_reduced_parameters_reject_non_finite(field):
    # a non-finite phase used to end in NaN rates and a numpy RuntimeWarning
    finite = dict(delta_l=1e-6, delta_l_prime=0.0, delta_l_dprime=0.0, delta_phi=0.0)
    ReducedParameters(**finite)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
            ReducedParameters(**{**finite, field: bad})
