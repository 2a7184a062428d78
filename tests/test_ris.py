import numpy as np
import pytest

from hybridris.numerics import make_rng
from hybridris.ris import (ActiveParams, ConsumptionParams, HarvestParams,
                           PassiveParams, RisMode, build_reflection,
                           energy_consumed, energy_gain, harvest,
                           passive_amplitude, resolve_mode, wrap_phase)
from oracles import naive_beta

PP = PassiveParams(beta_min=0.6, exponent=1.5, offset_l=0.0)
AP = ActiveParams(alpha_min=1.2, alpha_max=2.0, E_max=20.0)
HP = HarvestParams(eta=0.9, P_PB=10.0, T=1.0, tau=50.0)
CP = ConsumptionParams(P_passive=0.1e-3, P_amp=50e-3, P_ctrl=10e-3,
                       slot_seconds=1.0)


class TestPassiveAmplitude:
    def test_sine_minimum_hits_floor(self):
        assert passive_amplitude(3 * np.pi / 2, PP) == pytest.approx(0.6)

    def test_sine_maximum_hits_one(self):
        assert passive_amplitude(np.pi / 2, PP) == pytest.approx(1.0)

    def test_midpoint_value(self):
        # (1 - 0.6) * 0.5^1.5 + 0.6
        assert passive_amplitude(0.0, PP) == pytest.approx(
            0.6 + 0.4 * 0.5 ** 1.5, abs=1e-12)
        assert passive_amplitude(0.0, PP) == pytest.approx(0.74142, abs=1e-5)

    @pytest.mark.parametrize("offset", [0.0, 0.7])
    def test_offset_shifts_the_sine(self, offset):
        p = PassiveParams(beta_min=0.6, exponent=1.5, offset_l=offset)
        eps = make_rng(2).uniform(0, 2 * np.pi, 50)
        assert np.array_equal(passive_amplitude(eps, p),
                              naive_beta(eps, 0.6, 1.5, offset))
        assert passive_amplitude(1.5 * np.pi + offset, p) == \
            pytest.approx(0.6)

    def test_bounds_hold_everywhere(self):
        rng = make_rng(0)
        for _ in range(20):
            bm = float(rng.uniform(0, 1))
            ex = float(rng.uniform(0, 4))
            p = PassiveParams(beta_min=bm, exponent=ex)
            eps = rng.uniform(0, 2 * np.pi, 500)
            beta = passive_amplitude(eps, p)
            assert np.all(beta >= bm) and np.all(beta <= 1.0)


class TestHarvest:
    def test_unit_gain_elements(self):
        h = np.ones((4, 1), dtype=complex)
        assert harvest(h, HP) == pytest.approx(36.0)

    def test_one_element_surface(self):
        # one element's energy is eta * |h|^2 * P_PB * T
        h = np.array([[0.3 - 1.1j]])
        assert harvest(h, HP) == 0.9 * abs(h[0, 0]) ** 2 * 10.0 * 1.0

    def test_zero_beacon_power(self):
        h = np.ones((4, 1), dtype=complex)
        assert harvest(h, HarvestParams(eta=0.9, P_PB=0.0, T=1.0,
                                        tau=50.0)) == 0.0

    def test_linear_in_duration(self):
        rng = make_rng(1)
        h = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        e1 = harvest(h, HarvestParams(eta=0.5, P_PB=3.0, T=1.0, tau=1.0))
        e2 = harvest(h, HarvestParams(eta=0.5, P_PB=3.0, T=2.0, tau=1.0))
        assert e2 == pytest.approx(2.0 * e1)


class TestEnergyGain:
    def test_empty_ledger_gives_min_gain(self):
        assert energy_gain(0.0, 4, AP) == pytest.approx(1.2)

    def test_full_budget_gives_max_gain(self):
        assert energy_gain(4 * 20.0, 4, AP) == pytest.approx(2.0)

    def test_half_budget_interpolates(self):
        assert energy_gain(40.0, 4, AP) == pytest.approx(1.6)

    def test_clamped_and_monotone(self):
        rng = make_rng(2)
        totals = np.sort(rng.uniform(0, 500, 200))
        gains = [energy_gain(t, 4, AP) for t in totals]
        assert all(1.2 <= g <= 2.0 for g in gains)
        assert all(b >= a for a, b in zip(gains, gains[1:]))


class TestResolveMode:
    def test_below_threshold_is_passive(self):
        assert not resolve_mode(RisMode.dynamic_hybrid(), 49.9, 4, HP, AP)[0]

    def test_at_threshold_is_active(self):
        assert resolve_mode(RisMode.dynamic_hybrid(), 50.0, 4, HP, AP)[0]

    def test_forced_modes_ignore_energy(self):
        assert not resolve_mode(RisMode.passive(), 1e6, 4, HP, AP)[0]
        assert resolve_mode(RisMode.active(), 0.0, 4, HP, AP)[0]
        assert resolve_mode(RisMode.fixed_hybrid(), 0.0, 4, HP, AP)[0]

    def test_raising_tau_never_flips_to_active(self):
        taus = np.linspace(0, 100, 50)
        states = [resolve_mode(RisMode.dynamic_hybrid(), 30.0, 4,
                               HarvestParams(tau=float(t)), AP)[0]
                  for t in taus]
        flips = [(a, b) for a, b in zip(states, states[1:]) if b and not a]
        assert not flips

    def test_slot_settings(self):
        # (amplifies, leading amplifying elements, their gain) per mode
        assert resolve_mode(RisMode.passive(), 1e6, 4, HP,
                            AP) == (False, 0, 1.0)
        assert resolve_mode(RisMode.active(), 40.0, 4, HP,
                            AP) == (True, 4, energy_gain(40.0, 4, AP))
        assert resolve_mode(RisMode.dynamic_hybrid(), 49.9, 4, HP,
                            AP) == (False, 0, 1.0)
        assert resolve_mode(RisMode.dynamic_hybrid(), 60.0, 4, HP,
                            AP) == (True, 4, energy_gain(60.0, 4, AP))
        for frac, n in ((0.0, 0), (0.5, 2), (0.6, 2), (1.0, 4)):
            assert resolve_mode(RisMode.fixed_hybrid(frac, 3.0), 0.0, 4, HP,
                                AP) == (True, n, 3.0)

    @pytest.mark.parametrize("mode", [
        RisMode.passive(), RisMode.active(), RisMode.dynamic_hybrid(),
        RisMode.fixed_hybrid(0.5, 3.0)],
        ids=["passive", "active", "dynamic_hybrid", "fixed_hybrid"])
    def test_slot_stack_equals_one_slot_calls(self, mode):
        # 7 slots of unit-power beacon links; tau at the mean harvest mixes
        # passive and amplifying slots under the dynamic hybrid
        rng = make_rng(5)
        h = (rng.standard_normal((7, 4, 1))
             + 1j * rng.standard_normal((7, 4, 1))) / np.sqrt(2.0)
        hp = HarvestParams(tau=36.0)
        totals = harvest(h, hp)
        gains = energy_gain(totals, 4, AP)
        stack = resolve_mode(mode, totals, 4, hp, AP)
        assert totals.shape == (7,)
        assert stack[0].dtype == bool and stack[0].shape == totals.shape
        if mode.kind == "dynamic_hybrid":
            assert 0 < np.count_nonzero(stack[0]) < 7
        for i in range(7):
            total = harvest(h[i], hp)
            assert total.tobytes() == totals[i].tobytes()
            assert energy_gain(total, 4, AP).tobytes() == gains[i].tobytes()
            one = resolve_mode(mode, total, 4, hp, AP)
            assert [np.asarray(x).tobytes() for x in one] == \
                [x[i].tobytes() for x in stack]


class TestBuildReflection:
    def test_passive_peak_amplitude(self):
        refl = build_reflection(np.full(3, np.pi / 2), 0, 1.0, PP)
        assert refl.shape == (3,)
        assert np.allclose(refl, 1j, atol=1e-12)

    def test_active_uniform_gain(self):
        refl = build_reflection(np.zeros(3), 3, 1.6, PP)
        assert np.allclose(refl, 1.6)

    def test_fixed_hybrid_split(self):
        refl = build_reflection(np.zeros(4), 2, 2.0, PP)
        d = np.real(refl)
        assert d[0] == pytest.approx(2.0) and d[1] == pytest.approx(2.0)
        assert d[2] == pytest.approx(0.74142, abs=1e-5)
        assert d[3] == pytest.approx(0.74142, abs=1e-5)

    def test_phases_wrap_not_reject(self):
        refl = build_reflection(np.array([2 * np.pi + 0.3, -0.3]), 0, 1.0,
                                PP)
        angles = np.angle(refl)
        assert angles[0] == pytest.approx(0.3, abs=1e-12)
        assert wrap_phase(-0.3) == pytest.approx(2 * np.pi - 0.3)
        # np.mod rounds this phase up to 2*pi, which wraps to 0
        assert wrap_phase(-1e-17) == 0.0


class TestEnergyConsumed:
    def test_passive_slot(self):
        assert energy_consumed(0, 1.0, 4, CP) == pytest.approx(4.0e-4)

    def test_active_slot_at_full_gain(self):
        assert energy_consumed(4, 2.0, 4, CP) == pytest.approx(0.44)

    def test_active_range_for_gain_band(self):
        lo = energy_consumed(4, 1.2, 4, CP)
        hi = energy_consumed(4, 2.0, 4, CP)
        assert lo == pytest.approx(0.28)
        assert hi == pytest.approx(0.44)

    def test_passive_cheaper_than_active(self):
        for alpha in (1.2, 1.5, 2.0):
            assert (energy_consumed(0, 1.0, 4, CP)
                    <= energy_consumed(4, alpha, 4, CP))

    def test_fixed_hybrid_bills_split(self):
        expected = (energy_consumed(2, 2.0, 2, CP)
                    + energy_consumed(0, 1.0, 2, CP))
        assert energy_consumed(2, 2.0, 4, CP) == pytest.approx(expected)


def test_param_validation():
    with pytest.raises(ValueError):
        PassiveParams(beta_min=1.5)
    with pytest.raises(ValueError):
        ActiveParams(alpha_min=0.9)
    with pytest.raises(ValueError):
        HarvestParams(eta=0.0)
    with pytest.raises(ValueError):
        RisMode("warp")
