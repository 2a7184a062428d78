from types import SimpleNamespace

import numpy as np
import pytest

from hybridris.channel import CascadeSpec, Topology, sample_channel_set
from hybridris.numerics import make_rng
from hybridris.phy import (NoiseParams, PowerConstraint, power_cap,
                           project_beamformer, rate_report, sinrs, tx_power)
from hybridris.ris import PassiveParams, build_reflection
from oracles import naive_active_sinr, naive_frobenius_sq, naive_passive_rates

NOISE = NoiseParams()


def scalar_channels(h=1.0, hs=1.0, B=1):
    """One slot's links, single-antenna single-element, with fixed
    entries."""
    return SimpleNamespace(
        H_s=np.array([[hs]], dtype=complex),
        h_b=np.full((1, B), h, dtype=complex),
        H_p=np.zeros((1, 1), dtype=complex),
        h_PB=np.ones((1, 1), dtype=complex))


def one_slot(rng, topo, spec=CascadeSpec()):
    """The links of the one slot of a one-slot channel block."""
    block = sample_channel_set(rng, topo, spec, 1)
    return SimpleNamespace(**{k: v[0] for k, v in vars(block).items()})


def receiver_columns(ch):
    """h_b as the oracles take it: one R x 1 column per receiver."""
    return [ch.h_b[:, [b]] for b in range(ch.h_b.shape[1])]


class TestPowerCap:
    def test_interference_binds(self):
        pc = PowerConstraint(P_t=10.0, I_thr=10.0)
        assert power_cap(pc, [0.5, 2.0]) == pytest.approx(5.0)

    def test_zero_gains_leave_budget(self):
        assert power_cap(PowerConstraint(P_t=10.0, I_thr=10.0),
                         [0.0, 0.0]) == pytest.approx(10.0)

    def test_loose_threshold_inactive(self):
        assert power_cap(PowerConstraint(P_t=10.0, I_thr=1e12),
                         [0.5, 2.0]) == pytest.approx(10.0)


class TestProjectBeamformer:
    def test_feasible_untouched(self):
        G = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)  # power 4
        out, over = project_beamformer(G, 5.0)
        assert out is G and not over

    def test_infeasible_rescaled(self):
        G = np.full((2, 2), np.sqrt(5.0), dtype=complex)  # power 20
        out, over = project_beamformer(G, 5.0)
        assert over
        power = np.sum(np.abs(out) ** 2)
        assert power == pytest.approx(5.0, abs=1e-12)
        assert np.allclose(out, 0.5 * G)

    def test_zero_stays_zero(self):
        G = np.zeros((2, 3), dtype=complex)
        assert np.all(project_beamformer(G, 1.0)[0] == 0)

    def test_idempotent_and_direction_preserving(self):
        rng = make_rng(0)
        G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        once = project_beamformer(G, 1.0)[0]
        twice = project_beamformer(once, 1.0)[0]
        assert np.allclose(once, twice, atol=1e-15)
        # uniform positive scaling of the input leaves the output direction
        scaled = project_beamformer(3.0 * G, 1.0)[0]
        assert np.allclose(scaled / np.linalg.norm(scaled),
                           once / np.linalg.norm(once), atol=1e-12)


class TestSinrPassive:
    def test_scalar_case(self):
        ch = scalar_channels()
        refl = np.array([1.0 + 0j])
        G = np.array([[2.0 + 0j]])
        lam = sinrs(ch.H_s, ch.h_b, refl, G, NOISE.sigma_b_sq)[0]
        assert lam == pytest.approx(4.0)
        assert rate_report([lam]) == pytest.approx(np.log2(5.0))

    def test_zero_beam_zero_sinr(self):
        ch = scalar_channels()
        lam = sinrs(ch.H_s, ch.h_b, np.array([1.0 + 0j]),
                    np.array([[0.0 + 0j]]), NOISE.sigma_b_sq)[0]
        assert lam == 0.0

    def test_global_phase_invariance(self):
        rng = make_rng(1)
        ch = one_slot(rng, Topology())
        pp = PassiveParams()
        refl = build_reflection(rng.uniform(0, 2 * np.pi, 4), 0, 1.0, pp)
        G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        base = sinrs(ch.H_s, ch.h_b, refl, G, NOISE.sigma_b_sq)
        rot = refl * np.exp(1j * 1.234)
        rotated = sinrs(ch.H_s, ch.h_b, rot, G, NOISE.sigma_b_sq)
        assert np.allclose(base, rotated, atol=1e-12)

    def test_single_user_monotone_in_aligned_magnitudes(self):
        # all unit phases: growing any reflection magnitude grows the SINR
        ch = SimpleNamespace(H_s=np.ones((3, 1), dtype=complex),
                             h_b=np.ones((3, 1), dtype=complex))
        G = np.array([[1.0 + 0j]])
        mags = np.array([0.6, 0.7, 0.8])
        lam = sinrs(ch.H_s, ch.h_b, mags.astype(complex), G,
                    NOISE.sigma_b_sq)[0]
        for k in range(3):
            bigger = mags.copy()
            bigger[k] += 0.1
            lam2 = sinrs(ch.H_s, ch.h_b, bigger.astype(complex), G,
                         NOISE.sigma_b_sq)[0]
            assert lam2 > lam


class TestSinrActive:
    def test_scalar_case(self):
        ch = scalar_channels()
        refl = np.array([2.0 + 0j])
        G = np.array([[1.0 + 0j]])
        lam = sinrs(ch.H_s, ch.h_b, refl, G, NOISE.sigma_a_sq, 0.01)[0]
        assert lam == pytest.approx(4.0 / 1.04)
        assert lam == pytest.approx(3.8462, abs=1e-4)

    def test_no_amp_noise_reduces_to_passive(self):
        rng = make_rng(2)
        ch = one_slot(rng, Topology())
        refl = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        noise = NoiseParams(sigma_b_sq=1.0, sigma_a_sq=1.0)
        active = sinrs(ch.H_s, ch.h_b, refl, G, noise.sigma_a_sq, 0.0)
        passive = sinrs(ch.H_s, ch.h_b, refl, G, noise.sigma_b_sq)
        assert active == pytest.approx(passive, rel=1e-12)

    def test_amp_noise_grows_with_gain_squared(self):
        ch = scalar_channels()
        G = np.array([[1.0 + 0j]])

        def amp_term(alpha):
            lam = sinrs(ch.H_s, ch.h_b, np.array([alpha + 0j]), G,
                        NOISE.sigma_a_sq, 1.0)[0]
            # lam = alpha^2 / (alpha^2 + 1) here, so recover the noise term
            return alpha ** 2 / lam - 1.0

        assert amp_term(2.0) == pytest.approx(4.0 * amp_term(1.0), rel=1e-9)

    def test_mask_restricts_amplifier_noise(self):
        rng = make_rng(3)
        ch = one_slot(rng, Topology())
        refl = 2.0 * np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        mask = np.array([True, True, False, False])
        full = sinrs(ch.H_s, ch.h_b, refl, G, NOISE.sigma_a_sq, 0.05)
        masked = sinrs(ch.H_s, ch.h_b, refl, G, NOISE.sigma_a_sq, 0.05,
                       n_amp=2)
        cols = receiver_columns(ch)
        for b in range(len(cols)):
            oracle = naive_active_sinr(cols, refl, ch.H_s, G, 1.0, 0.05, b,
                                       amp_mask=mask)
            assert masked[b] == pytest.approx(oracle, rel=1e-12)
        assert np.all(masked > full)  # fewer noisy elements, higher SINR


class TestRateReport:
    def test_zero_sinrs(self):
        assert rate_report([0.0, 0.0]) == 0.0
        # each user alone on a slot: every per-user rate is 0
        assert rate_report([[0.0], [0.0]]).tolist() == [0.0, 0.0]

    def test_unit_sinr(self):
        assert rate_report([1.0]) == pytest.approx(1.0)

    def test_example_pair(self):
        rate = rate_report([4.0, 3.8462])
        assert rate == pytest.approx(np.log2(5.0) + np.log2(4.8462))
        assert rate == pytest.approx(4.5989, abs=2.5e-4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rate_report([-0.1])

    def test_nan_rejected(self):
        # a NaN SINR is no rate; it must not reach the reward as a NaN
        with pytest.raises(ValueError, match="NaN"):
            rate_report([1.0, float("nan")])


def test_sum_rate_matches_naive_reimplementation():
    rng = make_rng(4)
    topo = Topology(A=2, B=3, R=4, W=2)
    for _ in range(100):
        ch = one_slot(rng, topo, CascadeSpec(kappa_s=2, kappa_b=2))
        pp = PassiveParams()
        phases = rng.uniform(0, 2 * np.pi, topo.R)
        refl = build_reflection(phases, 0, 1.0, pp)
        G = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        rate = rate_report(sinrs(ch.H_s, ch.h_b, refl, G, NOISE.sigma_b_sq))
        _, _, naive_sum = naive_passive_rates(receiver_columns(ch), refl,
                                              ch.H_s, G, 1.0)
        assert rate == pytest.approx(naive_sum, abs=1e-10)


def test_tx_power_equals_frobenius():
    rng = make_rng(4)
    g = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    assert tx_power(g) == pytest.approx(naive_frobenius_sq(g), abs=1e-10)


def test_feasible_bits_pass_through_a_rescaled_stack():
    # the first beamformer is feasible and the second is not; the first
    # keeps every bit, the sign of its zero real part included
    G = np.array([[[complex(-0.0, -0.5)]], [[3.0 + 0j]]])
    out, over = project_beamformer(G, np.array([1.0, 1.0]))
    assert over.tolist() == [False, True]
    assert out[0].tobytes() == G[0].tobytes()
    assert np.signbit(out[0, 0, 0].real)
    assert tx_power(out[1]) == pytest.approx(1.0, abs=1e-12)
    assert tx_power(out).shape == (2,)
