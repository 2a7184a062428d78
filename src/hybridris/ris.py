"""RIS reflection construction, energy harvesting, mode switching, and
energy-consumption accounting.

Covers four operating modes:

* passive: phase-dependent reflection amplitude only (no amplification),
* active: uniform amplification gain scaled by harvested energy,
* dynamic hybrid: per-slot passive/active switch on harvested energy vs a
  threshold,
* fixed hybrid: a static subset of elements amplifies at a fixed gain while
  the rest reflect passively.

Each slot, ``harvest`` gives the energy the beacon delivers to the whole
surface, one total per slot, and ``resolve_mode`` turns any mode and that
total into one setting: whether the surface amplifies, how many leading
elements do and their gain. Reflection and energy bill read only that
setting. Every function here takes arrays with leading slot axes, so a
whole block of slots is worked out at once.

Harvested energy is collected fresh each slot from a dedicated power beacon;
there is no battery carry-over between slots.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import raise_broken, require_reals

PASSIVE = "passive"
ACTIVE = "active"
DYNAMIC_HYBRID = "dynamic_hybrid"
FIXED_HYBRID = "fixed_hybrid"


@dataclass(frozen=True)
class PassiveParams:
    """Phase-dependent amplitude model for passive elements.

    beta(eps) = (1 - beta_min) * ((sin(eps - offset_l) + 1) / 2)^exponent
                + beta_min
    """
    beta_min: float = 0.6
    exponent: float = 1.5
    offset_l: float = 0.0

    def __post_init__(self):
        require_reals(self)
        raise_broken(
            (not 0.0 <= self.beta_min <= 1.0, "beta_min must lie in [0, 1]"),
            (not self.exponent >= 0, "exponent must be >= 0"),
            (not self.offset_l >= 0, "offset_l must be >= 0"))


@dataclass(frozen=True)
class ActiveParams:
    """Amplification limits and amplifier noise for active elements.

    E_max is the per-element energy needed to reach alpha_max. amp_noise_var
    is the thermal noise power injected per amplifying element.
    """
    alpha_min: float = 1.2
    alpha_max: float = 2.0
    E_max: float = 9.0
    amp_noise_var: float = 0.01

    def __post_init__(self):
        require_reals(self)
        raise_broken(
            (not 1.0 < self.alpha_min <= self.alpha_max,
             "need 1 < alpha_min <= alpha_max"),
            (not self.E_max > 0, "E_max must be > 0"),
            (not self.amp_noise_var >= 0, "amp_noise_var must be >= 0"))


@dataclass(frozen=True)
class HarvestParams:
    """Beacon harvesting: efficiency eta, beacon power P_PB, phase duration
    T, and the activation threshold tau for the dynamic hybrid mode."""
    eta: float = 0.9
    P_PB: float = 10.0
    T: float = 1.0
    tau: float = 50.0

    def __post_init__(self):
        require_reals(self)
        raise_broken(
            (not 0.0 < self.eta <= 1.0, "eta must lie in (0, 1]"),
            (not self.P_PB >= 0, "P_PB must be >= 0"),
            (not self.T > 0, "T must be > 0"),
            (not self.tau >= 0, "tau must be >= 0"))


@dataclass(frozen=True)
class ConsumptionParams:
    """Control/amplification power draw, converted to joules per slot."""
    P_passive: float = 0.1e-3
    P_amp: float = 50e-3
    P_ctrl: float = 10e-3
    slot_seconds: float = 1.0

    def __post_init__(self):
        require_reals(self)
        raise_broken(
            *[(not getattr(self, name) >= 0, f"{name} must be >= 0")
              for name in ("P_passive", "P_amp", "P_ctrl")],
            (not self.slot_seconds > 0, "slot_seconds must be > 0"))


@dataclass(frozen=True)
class RisMode:
    """Operating mode; fixed_hybrid carries its element split and gain."""
    kind: str
    active_fraction: float = 0.5
    fixed_gain: float = 2.0

    def __post_init__(self):
        require_reals(self)
        raise_broken(
            (self.kind not in (PASSIVE, ACTIVE, DYNAMIC_HYBRID, FIXED_HYBRID),
             f"unknown RIS mode {self.kind!r}"),
            (not 0.0 <= self.active_fraction <= 1.0,
             "active_fraction must lie in [0, 1]"),
            (not self.fixed_gain > 1.0, "fixed_gain must be > 1"))

    @classmethod
    def passive(cls):
        return cls(PASSIVE)

    @classmethod
    def active(cls):
        return cls(ACTIVE)

    @classmethod
    def dynamic_hybrid(cls):
        return cls(DYNAMIC_HYBRID)

    @classmethod
    def fixed_hybrid(cls, active_fraction=0.5, fixed_gain=2.0):
        return cls(FIXED_HYBRID, active_fraction, fixed_gain)

    def n_active(self, R: int) -> int:
        """Elements that amplify under the fixed-hybrid split: the first
        floor(active_fraction * R) of the R elements."""
        return int(np.floor(self.active_fraction * R))


def passive_amplitude(eps, p: PassiveParams):
    """Reflection amplitude of a passive element at phase shift ``eps``.

    Result lies in [beta_min, 1]; the minimum is hit where
    sin(eps - offset_l) = -1.
    """
    # eps - 0 is eps, so a zero offset skips the subtraction
    shifted = eps - p.offset_l if p.offset_l else eps
    shaped = ((np.sin(shifted) + 1.0) / 2.0) ** p.exponent
    return (1.0 - p.beta_min) * shaped + p.beta_min


def harvest(h_PB: np.ndarray, hp: HarvestParams):
    """Harvested total sum_r E_r of the per-element energies
    E_r = eta * |h_PB_r|^2 * P_PB * T.

    ``h_PB`` is the R x 1 beacon link of one slot, or a stack of them with
    leading slot axes, which the totals keep.
    """
    per = hp.eta * np.abs(np.asarray(h_PB)[..., 0]) ** 2 * hp.P_PB * hp.T
    return np.sum(per, axis=-1)


def energy_gain(total, R: int, ap: ActiveParams):
    """Uniform amplification gain scaled by the shared energy budget, one
    per harvested total.

    f = (E_total / R) / E_max; the interpolated gain is hard-clamped at
    alpha_max afterwards, so over-harvest cannot over-amplify.
    """
    if R < 1:
        raise ValueError("R must be >= 1")
    f = (total / R) / ap.E_max
    alpha = ap.alpha_min + (ap.alpha_max - ap.alpha_min) * f
    return np.minimum(alpha, ap.alpha_max)


def resolve_mode(mode: RisMode, total, R: int, hp: HarvestParams,
                 ap: ActiveParams):
    """Each slot's surface setting ``(active, n_active, gain)``: whether it
    amplifies, how many leading elements do, and their gain, as arrays
    shaped like the harvested ``total``; ``active`` is a bool mask.

    Passive is (False, 0, 1.0) and active (True, R, energy_gain). The
    dynamic hybrid is active iff the harvested total reaches tau and
    passive otherwise; the fixed hybrid runs its static split at its fixed
    gain and counts as active.
    """
    shape = np.shape(total)
    if mode.kind == DYNAMIC_HYBRID:
        active = np.greater_equal(total, hp.tau)
    else:
        active = np.full(shape, mode.kind != PASSIVE)
    if mode.kind == FIXED_HYBRID:
        # np.full keeps the type of the configured gain, so an integer
        # fixed_gain is reported as the integer it was given as
        return (active, np.full(shape, mode.n_active(R)),
                np.full(shape, mode.fixed_gain))
    return (active, np.where(active, R, 0),
            np.where(active, energy_gain(total, R, ap), 1.0))


def wrap_phase(eps):
    """Wrap onto [0, 2*pi)."""
    wrapped = np.mod(eps, 2.0 * np.pi)
    # np.mod rounds a tiny negative phase up to 2*pi itself; checking the
    # maximum first costs less than a pass that maps every value
    if np.maximum.reduce(wrapped, axis=None, initial=0.0) < 2.0 * np.pi:
        return wrapped
    return np.where(wrapped == 2.0 * np.pi, 0.0, wrapped)


def build_reflection(phases, n_active, gain, pp: PassiveParams) -> np.ndarray:
    """Per-element reflection coefficients (length R, on the last axis of
    ``phases``); leading slot axes of ``phases`` are kept, and ``n_active``
    and ``gain`` broadcast against them on a trailing axis of 1.

    The first ``n_active`` elements amplify at ``gain``; the rest reflect
    passively with beta(eps_r). Every element applies its phase e^{j eps_r}.
    The phases are read as given: ``env.score`` wraps an action's phases
    once, with ``wrap_phase``, for the observation and this function.
    """
    eps = np.asarray(phases, dtype=float)
    mag = np.where(np.arange(eps.shape[-1]) < n_active, gain,
                   passive_amplitude(eps, pp))
    return mag * np.exp(1j * eps)


def energy_consumed(n_active, gain, R: int, cp: ConsumptionParams):
    """Energy drawn by the surface in a slot (joules), elementwise over
    arrays of slot settings.

    The ``n_active`` amplifying elements draw control power plus power
    proportional to their gain; the other R - n_active elements cost
    passive control power only.
    """
    amplifying = n_active * (gain * cp.P_amp + cp.P_ctrl) * cp.slot_seconds
    return amplifying + (R - n_active) * cp.P_passive * cp.slot_seconds
