"""SINR, sum rates, and the PU interference power cap.

Data symbols are assumed i.i.d. unit power, so the transmit power of a
beamformer G is tr(G G^H) and never needs per-symbol waveforms. All powers
are linear watts internally; dB-valued config inputs are converted at
config-load time.
"""

from dataclasses import dataclass

import numpy as np

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


def tx_power(G: np.ndarray) -> np.ndarray:
    """Transmit power tr(G G^H) of an A x B beamformer, or of each of a
    stack of them (leading axes kept)."""
    # the diagonal's sum, as ndarray.trace takes it: trace's argument
    # handling costs 0.8 us, about 1 % of a closed-loop env step
    gram = G @ G.conj().swapaxes(-1, -2)
    return np.add.reduce(gram.diagonal(0, -2, -1), axis=-1).real


def project_beamformer(G: np.ndarray, cap):
    """Scale each beamformer of ``G`` (A x B, or a stack with leading axes
    that ``cap`` broadcasts against) down, never up, so tr(G G^H) <= cap.

    Returns the projected beamformers and the mask of the rescaled ones,
    shaped like the leading axes. Feasible beamformers pass through
    unchanged, and when every one is feasible ``G`` itself is returned;
    infeasible ones are rescaled by sqrt(cap / power), which preserves the
    beam directions.
    """
    power = tx_power(G)
    over = power > cap
    if not np.logical_or.reduce(over, axis=None):
        return G, over
    if np.logical_or.reduce(cap <= 0, axis=None):
        raise ValueError("cap must be > 0")
    scale = np.sqrt(cap / np.maximum(power, cap))[..., None, None]
    # the feasible ones are selected, not scaled by 1, so every bit of them
    # (the sign of a zero included) passes through
    return np.where(over[..., None, None], G * scale, G), over


def _cmul_apart(x, y):
    """``x * y`` with each real product rounded on its own, as Python's
    complex multiply and numpy's loop for a lone broadcast pair round it;
    numpy's vector loop fuses a multiply into each add instead."""
    out = np.empty(np.broadcast(x, y).shape, complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def sinrs(H_s: np.ndarray, h_b: np.ndarray, refl: np.ndarray, G: np.ndarray,
          noise_var, amp_noise_var=0.0, n_amp=None) -> np.ndarray:
    """SINR at every SU receiver through the reflection vector ``refl``.

    Receiver b sees the cascaded link h_b^T diag(refl) H_s G; the beams
    intended for the other receivers are its interference. The first
    ``n_amp`` elements (all when None) amplify and add the thermal noise
    they re-radiate, amp_noise_var * |h_b,r refl_r|^2 summed over them. A
    passive surface is n_amp = 0, which leaves the noise term out; a slot
    with amp_noise_var = 0 adds it as 0.0. Both are exact, as
    interference + 0.0 is the interference.

    One slot is H_s (R x A), h_b (R x B), refl (R) and G (A x B); each may
    carry leading slot axes, and the SINRs (receivers on the last axis)
    keep them. ``noise_var`` and ``amp_noise_var`` broadcast against the
    SINRs: scalars, or per-slot values with a trailing axis of 1.
    """
    h = h_b.swapaxes(-1, -2)                     # B x R
    r = refl[..., None, :]
    # with one receiver and one element the former one-slot product rounded
    # each part apart; so does this, for every stack of such slots
    hrow = _cmul_apart(h, r) if h.shape[-2:] == (1, 1) else h * r
    powers = np.abs(hrow @ H_s @ G) ** 2         # receiver x beam
    signal = powers.diagonal(0, -2, -1)
    interf = np.add.reduce(powers, axis=-1) - signal
    if n_amp != 0:
        amp = hrow if n_amp is None else hrow[..., :n_amp]
        interf += amp_noise_var * np.add.reduce(np.abs(amp) ** 2, axis=-1)
    interf += noise_var
    return signal / interf


def rate_report(sinrs) -> np.ndarray:
    """The sum of the per-user rates log2(1 + sinr) over the last axis, one
    per slot of any leading axes."""
    lam = np.asarray(sinrs, dtype=float)
    if not np.logical_and.reduce(lam >= 0, axis=None):
        raise ValueError("SINR values must be >= 0 and not NaN")
    return np.add.reduce(np.log2(1.0 + lam), axis=-1)
