"""Non-episodic MDP around the hybrid-RIS link.

Each step: harvest beacon energy, resolve the surface mode, decode the
agent's beamformer/phase action under the PU interference cap, score the
resulting sum rate, and charge the energy-shortfall penalty when the
surface amplifies without enough harvest. Runs have no terminal state; a
"run" is simply a fixed number of steps.

Channels are drawn a block of slots at a time. Everything a step needs
that its action does not change (harvest, surface setting, power cap,
penalty, energy bill, noise variance and the channel part of the
observation) is worked out for the whole block at once.

Observation layout (flat float64 vector, length 2 + 2RA + 2RB + 2AW + 2AB
+ R + 2):

    [0]                 P_t, configured max transmit power (linear W)
    [1]                 I_thr, PU interference threshold (linear W)
    [2 : 2+2RA]         H_s, real parts row-major then imaginary parts
    [.. : ..+2RB]       for each receiver b: Re(h_b[:, b]) then Im(h_b[:, b])
    [.. : ..+2AW]       H_p, real parts row-major then imaginary parts
    [.. : ..+2AB]       previous beamformer G, real then imaginary parts
    [.. : ..+R]         previous phase shifts (wrapped radians)
    [-2]                previous uniform gain (1.0 on passive slots)
    [-1]                previous resolved-mode flag (1 active, 0 passive)

The channels in an observation are the ones the next action will be scored
against; the previous-action fields are zeroed right after a reset.

Action layout (flat vector, length 2AB + R, agent range [-1, 1] per entry):
the first AB entries are beamformer real parts (row-major), the next AB the
imaginary parts, and the last R entries map linearly onto phases via
eps = (x + 1) * pi.
"""

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import phy, ris
from .channel import (CascadeSpec, ChannelBlock, FadingMode, Topology,
                      sample_channel_set, slot_draws)
from .numerics import (make_rng, raise_broken, require_reals, restore_rng,
                       rng_state)
from .phy import NoiseParams, PowerConstraint
from .ris import (ACTIVE, ActiveParams, ConsumptionParams, HarvestParams,
                  PassiveParams, RisMode)

CONSTRAINT_TOL = 1e-9
# Slots of channels drawn per refill; one draw per block instead of per slot
# leaves the stream, and so every result, unchanged.
CHANNEL_BLOCK = 64


@dataclass(frozen=True)
class EnvConfig:
    topo: Topology = field(default_factory=Topology)
    cascade: CascadeSpec = field(default_factory=CascadeSpec)
    pp: PassiveParams = field(default_factory=PassiveParams)
    ap: ActiveParams = field(default_factory=ActiveParams)
    hp: HarvestParams = field(default_factory=HarvestParams)
    cp: ConsumptionParams = field(default_factory=ConsumptionParams)
    noise: NoiseParams = field(default_factory=NoiseParams)
    pc: PowerConstraint = field(default_factory=PowerConstraint)
    mode: RisMode = field(default_factory=RisMode.dynamic_hybrid)
    penalty_weight: float = 0.1
    fading: FadingMode = field(default_factory=FadingMode)
    seed: int = 0

    def __post_init__(self):
        require_reals(self)
        raise_broken((not self.penalty_weight >= 0,
                      "penalty_weight must be >= 0"))

    def with_(self, **kwargs) -> "EnvConfig":
        return replace(self, **kwargs)


class SlotSetting(NamedTuple):
    """What one slot fixes for its step, whatever the action."""
    resolved: str        # logged mode, "active" or "passive"
    n_active: int        # leading amplifying elements
    alpha: float         # their gain (1.0 on passive slots)
    cap: float           # transmit power ceiling
    noise_var: float     # receiver noise variance
    penalty: float       # energy-shortfall penalty
    energy: float        # energy bill (J)
    E_total: float       # harvested total (J)
    mode_flag: float     # 1.0 active, 0.0 passive


class StepOutcome(NamedTuple):
    """One step, its fields named as the step log names them."""
    observation: np.ndarray
    reward: float        # sum_rate - penalty
    sum_rate: float
    mode: str            # resolved mode, "active" or "passive"
    E_total: float       # harvested total (J)
    alpha: float         # amplifier gain (1.0 on passive slots)
    energy_J: float      # energy bill (J)
    cap: float           # transmit power ceiling
    penalty: float       # energy-shortfall penalty; not logged


# The step log's columns in log order: the step index, then every outcome
# field but the observation and the penalty.
STEP_LOG_FIELDS = ("t",) + StepOutcome._fields[1:-1]


def observation_size(topo: Topology) -> int:
    return (2 + 2 * topo.R * topo.A + 2 * topo.R * topo.B
            + 2 * topo.A * topo.W + 2 * topo.A * topo.B + topo.R + 2)


def action_size(topo: Topology) -> int:
    return 2 * topo.A * topo.B + topo.R


def _split_action(a, topo: Topology):
    """The raw complex beamformer and the wrapped phases of a flat action.

    Entries outside [-1, 1] are taken as they are: the projection onto the
    power cap keeps the beamformer feasible, and the phases wrap."""
    a = np.asarray(a, dtype=float).ravel()
    ab = topo.A * topo.B
    if a.size != 2 * ab + topo.R:
        raise ValueError(f"action length {a.size}, expected {2 * ab + topo.R}")
    re = a[:ab].reshape(topo.A, topo.B)
    im = a[ab:2 * ab].reshape(topo.A, topo.B)
    return re + 1j * im, ris.wrap_phase((a[2 * ab:] + 1.0) * np.pi)


class RisCrnEnv:
    """Single-owner environment; run many instances (one per seed) for
    parallel experiments."""

    def __init__(self, cfg: EnvConfig):
        self.cfg = cfg
        self._rng = None
        self._channels = None     # the current slot's ChannelSet
        self._block = None        # drawn slots; the first _used are taken
        self._used = 0
        self._block_start = None  # generator state before the block's draw
        self._rows = None         # channel part of each slot's observation
        self._settings = None     # SlotSetting per slot, made at first step
        self._t = 0
        self._violations = 0
        self._prev_G = None
        self._prev_phases = None
        self._prev_alpha = 0.0
        self._prev_mode_flag = 0.0

    @property
    def observation_size(self) -> int:
        return observation_size(self.cfg.topo)

    @property
    def action_size(self) -> int:
        return action_size(self.cfg.topo)

    @property
    def violations(self) -> int:
        """Steps on which the projected beamformer exceeded the cap."""
        return self._violations

    def reset(self, seed=None) -> np.ndarray:
        seed = self.cfg.seed if seed is None else seed
        self._rng = make_rng(seed)
        self._block = None
        self._next_slot(1)
        self._t = 0
        self._violations = 0
        topo = self.cfg.topo
        self._prev_G = np.zeros((topo.A, topo.B), dtype=np.complex128)
        self._prev_phases = np.zeros(topo.R)
        self._prev_alpha = 0.0
        self._prev_mode_flag = 0.0
        return self._observe()

    def step(self, action) -> StepOutcome:
        if self._channels is None:
            raise RuntimeError("call reset() before step()")
        action = np.asarray(action, dtype=float)
        if not np.logical_and.reduce(np.isfinite(action), axis=None):
            raise ValueError(f"non-finite action at step {self._t}")
        cfg = self.cfg
        if self._settings is None:
            self._settings = self._slot_settings(self._block)
        slot = self._settings[self._used - 1]

        raw, phases = _split_action(action, cfg.topo)
        G = phy.project_beamformer(raw, slot.cap)
        refl = ris.build_reflection(phases, slot.n_active, slot.alpha, cfg.pp)
        sinrs = phy.sinrs(self._channels, refl, G, slot.noise_var,
                          cfg.ap.amp_noise_var, slot.n_active)
        sum_rate = phy.rate_report(sinrs).sum_rate

        # an unscaled G already has power <= cap; only a rescaled one can
        # round above it
        if G is not raw and phy.tx_power(G) > slot.cap + CONSTRAINT_TOL:
            self._violations += 1

        self._prev_G = G
        self._prev_phases = phases
        self._prev_alpha = slot.alpha
        self._prev_mode_flag = slot.mode_flag
        self._t += 1
        if self._t % cfg.fading.block_length == 0:
            self._next_slot(CHANNEL_BLOCK)

        return StepOutcome(self._observe(), sum_rate - slot.penalty, sum_rate,
                           slot.resolved, slot.E_total, slot.alpha,
                           slot.energy, slot.cap, slot.penalty)

    def get_state(self) -> dict:
        """Snapshot for exact run continuation (channels, RNG position,
        previous-action fields, counters). The saved RNG position is the
        one right after the current slot's draw, as if slots were drawn one
        at a time."""
        if self._rng is None:
            raise RuntimeError("call reset() before get_state()")
        ch = self._channels
        rng = self._rng
        if ch is not None and self._used < len(self._block):
            rng = restore_rng(self._block_start)
            rng.standard_normal(
                self._used * sum(slot_draws(self.cfg.topo, self.cfg.cascade)))
        return {
            "rng": rng_state(rng),
            "channels": None if ch is None else {
                "H_s": ch.H_s.copy(),
                "h_b": ch.h_b.copy(),
                "H_p": ch.H_p.copy(),
                "h_PB": ch.h_PB.copy(),
                "g_sp": np.asarray(ch.g_sp).copy(),
            },
            "t": self._t,
            "violations": self._violations,
            "prev_G": self._prev_G.copy(),
            "prev_phases": self._prev_phases.copy(),
            "prev_alpha": self._prev_alpha,
            "prev_mode_flag": self._prev_mode_flag,
        }

    def set_state(self, st: dict):
        self._rng = restore_rng(st["rng"])
        chd = st["channels"]
        self._block = self._channels = None
        if chd is not None:
            # the restored slot is a used-up block of one, so the next
            # refill draws from the restored generator
            self._start_block(ChannelBlock(
                **{k: np.asarray(v)[None] for k, v in chd.items()}))
            self._used = 1
            self._channels = self._block[0]
        self._t = int(st["t"])
        self._violations = int(st["violations"])
        self._prev_G = st["prev_G"]
        self._prev_phases = st["prev_phases"]
        self._prev_alpha = float(st["prev_alpha"])
        self._prev_mode_flag = float(st["prev_mode_flag"])

    def _next_slot(self, block: int):
        """Moves to the next slot; draws ``block`` slots when the current
        block is used up."""
        if self._block is None or self._used == len(self._block):
            self._block_start = self._rng.bit_generator.state
            self._start_block(sample_channel_set(
                self._rng, self.cfg.topo, self.cfg.cascade, block))
        self._used += 1
        self._channels = self._block[self._used - 1]

    def _start_block(self, block: ChannelBlock):
        """Makes ``block`` the current one, with its observation rows; its
        slot settings wait for the first step that reads them, so a reset
        does not pay for them."""
        n = len(block)
        h_b = block.h_b.transpose(0, 2, 1)              # slot x B x R
        self._block, self._used, self._settings = block, 0, None
        self._rows = np.concatenate([
            np.full((n, 2), (self.cfg.pc.P_t, self.cfg.pc.I_thr), float),
            block.H_s.real.reshape(n, -1), block.H_s.imag.reshape(n, -1),
            np.stack([h_b.real, h_b.imag], axis=2).reshape(n, -1),
            block.H_p.real.reshape(n, -1), block.H_p.imag.reshape(n, -1),
        ], axis=1)

    def _slot_settings(self, block: ChannelBlock) -> list:
        """A ``SlotSetting`` for every slot of ``block``."""
        cfg = self.cfg
        ledger = ris.harvest(block.h_PB, cfg.hp)
        resolved, n_active, alpha = ris.resolve_mode(
            cfg.mode, ledger, cfg.topo.R, cfg.hp, cfg.ap)
        active = resolved == ACTIVE
        shortfall = np.maximum(0.0, cfg.hp.tau - ledger.total)
        penalty = np.where(active, cfg.penalty_weight * shortfall, 0.0)
        noise_var = np.where(active, cfg.noise.sigma_a_sq,
                             cfg.noise.sigma_b_sq)
        energy = ris.energy_consumed(n_active, alpha, cfg.topo.R, cfg.cp)
        # a slot capped at P_t reports P_t itself, so an integer P_t from a
        # spec is logged as that integer
        P_t = cfg.pc.P_t
        caps = [P_t if c == P_t else c
                for c in phy.power_cap(cfg.pc, block.g_sp).tolist()]
        return list(map(SlotSetting._make, zip(
            resolved.tolist(), n_active.tolist(), alpha.tolist(), caps,
            noise_var.tolist(), penalty.tolist(), energy.tolist(),
            ledger.total.tolist(), active.astype(float).tolist())))

    def _observe(self) -> np.ndarray:
        G = self._prev_G
        return np.concatenate((self._rows[self._used - 1], G.real, G.imag,
                               self._prev_phases,
                               (self._prev_alpha, self._prev_mode_flag)),
                              axis=None)

