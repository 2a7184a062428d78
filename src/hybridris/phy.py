"""SINR, per-user rates, sum rates, and the PU interference power cap.

Data symbols are assumed i.i.d. unit power, so the transmit power of a
beamformer G is tr(G G^H) and never needs per-symbol waveforms. All powers
are linear watts internally; dB-valued config inputs are converted at
config-load time.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelSet
from .numerics import raise_broken, require_reals


@dataclass(frozen=True)
class NoiseParams:
    """Receiver noise variance per mode (watts)."""
    sigma_b_sq: float = 1.0   # passive-mode receiver noise
    sigma_a_sq: float = 1.0   # active-mode receiver noise

    def __post_init__(self):
        require_reals(self)
        raise_broken((not self.sigma_b_sq > 0, "sigma_b_sq must be > 0"),
                     (not self.sigma_a_sq > 0, "sigma_a_sq must be > 0"))


@dataclass(frozen=True)
class PowerConstraint:
    """Max SU transmit power and the PU interference ceiling (linear W)."""
    P_t: float = 10.0
    I_thr: float = 10.0

    def __post_init__(self):
        require_reals(self)
        raise_broken((not self.P_t > 0, "P_t must be > 0"),
                     (not self.I_thr > 0, "I_thr must be > 0"))


class RateReport(NamedTuple):
    per_user_sinr: np.ndarray
    per_user_rate: np.ndarray
    sum_rate: float


def db_to_linear(db: float) -> float:
    return float(10.0 ** (db / 10.0))


def power_cap(pc: PowerConstraint, g_sp) -> np.ndarray:
    """Transmit power ceiling: min of the power budget and the interference
    threshold divided by the strongest PU link. Zero PU gain leaves only
    the power budget. ``g_sp`` holds the per-PU gains along its last axis;
    leading (slot) axes are kept."""
    g_max = np.max(g_sp, axis=-1)
    with np.errstate(divide="ignore"):
        return np.where(g_max > 0.0, np.minimum(pc.P_t, pc.I_thr / g_max),
                        pc.P_t)


def tx_power(G: np.ndarray) -> float:
    """Transmit power tr(G G^H) of a beamformer."""
    return float((G @ G.conj().T).trace().real)


def project_beamformer(G: np.ndarray, cap: float) -> np.ndarray:
    """Scale G down (never up) so tr(G G^H) <= cap.

    Feasible inputs pass through unchanged; infeasible ones are rescaled by
    sqrt(cap / power), which preserves the beam directions.
    """
    if cap <= 0:
        raise ValueError("cap must be > 0")
    power = tx_power(G)
    if power <= cap:
        return G
    return G * math.sqrt(cap / power)


def sinrs(ch: ChannelSet, refl: np.ndarray, G: np.ndarray, noise_var: float,
          amp_noise_var: float = 0.0, n_amp=None) -> np.ndarray:
    """SINR at every SU receiver through the reflection vector ``refl``.

    Receiver b sees the cascaded link h_b^T diag(refl) H_s G; the beams
    intended for the other receivers are its interference. The first
    ``n_amp`` elements (all when None) amplify and add the thermal noise
    they re-radiate, amp_noise_var * |h_b,r refl_r|^2 summed over them. A
    passive surface is n_amp = 0 or amp_noise_var = 0; its noise term is
    left out, which is exact, as interference + 0.0 is the interference.
    """
    hrow = ch.h_b.T * refl                       # B x R
    powers = np.abs(hrow @ ch.H_s @ G) ** 2      # receiver x beam
    signal = powers.diagonal()
    interf = np.add.reduce(powers, axis=1) - signal
    if n_amp != 0 and amp_noise_var != 0:
        amp = hrow if n_amp is None else hrow[:, :n_amp]
        interf += amp_noise_var * np.add.reduce(np.abs(amp) ** 2, axis=1)
    return signal / (interf + noise_var)


def rate_report(sinrs) -> RateReport:
    """Per-user rates log2(1 + sinr) and their sum."""
    lam = np.asarray(sinrs, dtype=float)
    if not np.logical_and.reduce(lam >= 0, axis=None):
        raise ValueError("SINR values must be >= 0 and not NaN")
    rates = np.log2(1.0 + lam)
    return RateReport(lam, rates, float(np.add.reduce(rates, axis=None)))
