"""Non-episodic MDP around the hybrid-RIS link.

Each step: harvest beacon energy, resolve the surface mode, decode the
agent's beamformer/phase action under the PU interference cap, score the
resulting sum rate, and charge the energy-shortfall penalty when the
surface amplifies without enough harvest. Runs have no terminal state; a
"run" is simply a fixed number of steps.

Channels are drawn a block of slots at a time. Everything a step needs
that its action does not change (harvest, surface setting, power cap,
penalty, energy bill, noise variance and the channel part of the
observation) is worked out for the whole block at once. ``step`` scores a
stack of actions against consecutive slots of the drawn block in one pass,
with the same bits as one step at a time; one action is a stack of one.

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

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import phy, ris
from .channel import (CascadeSpec, ChannelBlock, FadingMode, Topology,
                      sample_channel_set)
from .numerics import (make_rng, raise_broken, require_reals, restore_rng,
                       rng_state)
from .phy import NoiseParams, PowerConstraint
from .ris import (ACTIVE, ActiveParams, ConsumptionParams, HarvestParams,
                  PassiveParams, RisMode)

CONSTRAINT_TOL = 1e-9
# Slots of channels drawn per refill; one draw per block instead of per slot
# leaves the stream, and so every result, unchanged. Each refill, and each
# open-loop pass of ``step`` over it, pays ~370 us of fixed cost, so the
# block is sized by that cost. Random-agent loop time against 64-slot blocks
# (build plus run, in process, 2-vCPU x86-64 with AVX-512), for seed-runs of
# 1 500 steps / 20 000 steps:
#   128 slots: x0.78-0.84 / x0.76-0.81
#   256 slots: x0.68-0.69 / x0.67-0.70
#   512 slots: x0.62-0.65 / x0.61-0.63
#  1024 slots: x0.72-0.74 / x0.59-0.62
# 512 it is: a larger block draws slots a run never uses (a 1 500-step run
# draws 1 537 slots with 512-slot blocks, as with 64, and 2 049 with 1 024),
# gains at most 3 % more on 20 000 steps, and one sized to the whole run
# grows memory with the run length.
CHANNEL_BLOCK = 512


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

    def __post_init__(self):
        require_reals(self)
        raise_broken((not self.penalty_weight >= 0,
                      "penalty_weight must be >= 0"))


class StepOutcome(NamedTuple):
    """One step, its fields named as the step log names them. For a stack
    of steps, each field holds a per-step list (a list or a tuple) and the
    observations are the rows of one array."""
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
    """The raw complex beamformer and the wrapped phases of a flat action,
    or of each action stacked on leading axes; the caller has checked the
    last axis's length.

    Entries outside [-1, 1] are taken as they are: the projection onto the
    power cap keeps the beamformer feasible, and the phases wrap."""
    a = np.asarray(a, dtype=float)
    ab = topo.A * topo.B
    shape = a.shape[:-1] + (topo.A, topo.B)
    re = a[..., :ab].reshape(shape)
    im = a[..., ab:2 * ab].reshape(shape)
    return re + 1j * im, ris.wrap_phase((a[..., 2 * ab:] + 1.0) * np.pi)


class RisCrnEnv:
    """Single-owner environment; run many instances (one per seed) for
    parallel experiments."""

    def __init__(self, cfg: EnvConfig):
        self.cfg = cfg
        self._rng = None
        self._block = None        # drawn slots
        self._first = 0           # the run's slot of the block's first row
        self._block_start = None  # generator state before the block's draw
        self._rows = None         # channel part of each slot's observation
        self._settings = None     # slot settings, made at the first step
        self._t = 0
        self._violations = 0

    @property
    def observation_size(self) -> int:
        return observation_size(self.cfg.topo)

    @property
    def action_size(self) -> int:
        return action_size(self.cfg.topo)

    @property
    def steps_in_block(self) -> int:
        """Steps from the current one whose slots the drawn channel block
        holds: a block of actions this long is scored in one pass."""
        if self._block is None:
            raise RuntimeError("call reset() before steps_in_block")
        L = self.cfg.fading.block_length
        return (self._first + len(self._block)) * L - self._t

    @property
    def violations(self) -> int:
        """Steps on which the projected beamformer exceeded the cap."""
        return self._violations

    def reset(self, seed) -> np.ndarray:
        self._rng = make_rng(seed)
        self._first = 0
        self._draw(1)
        self._t = 0
        self._violations = 0
        topo = self.cfg.topo
        return np.concatenate((self._rows[0], np.zeros(2 * topo.A * topo.B
                                                       + topo.R + 2)))

    def step(self, action) -> StepOutcome:
        """Scores a k x action_size array of actions against the next k
        steps' slots, 1 <= k <= ``steps_in_block``, in one pass over a
        leading step axis, and returns their outcomes as one
        ``StepOutcome`` of per-step entries. A flat action is scored as a
        stack of one, and its step's outcome is returned."""
        if self._block is None:
            raise RuntimeError("call reset() before step()")
        actions = np.asarray(action, dtype=float)
        flat = actions.ndim == 1
        if flat:
            actions = actions[None]
        m, room = self.action_size, self.steps_in_block
        if not (actions.ndim == 2 and 1 <= len(actions) <= room
                and actions.shape[1] == m):
            raise ValueError(
                f"action shape {np.shape(action)}; expected ({m},), or "
                f"(k, {m}) with 1 <= k <= {room}: the drawn channel block "
                f"holds {room} steps")
        finite = np.isfinite(actions)
        if not np.logical_and.reduce(finite, axis=None):
            bad = np.logical_and.reduce(finite, axis=-1).argmin()
            raise ValueError(f"non-finite action at step {self._t + bad}")
        cfg = self.cfg
        if self._settings is None:
            self._settings = self._slot_settings(self._block)
        values, settings, n_amp = self._settings
        n, t0, first = len(actions), self._t, self._first
        L = cfg.fading.block_length
        # the block slot of each step and of the step after it; ``take``
        # reads a slot list's rows in 0.6 us where indexing with the list
        # takes 1.6 us per array
        slots = [(t0 + i) // L - first for i in range(n + 1)]
        cur, nxt = slots[:-1], slots[1:]
        mode, E_total, alpha, energy, cap, penalty, counts = \
            zip(*[settings[i] for i in cur])
        v = values.take(cur, 0)
        caps, tail = v[:, 0], v[:, 4:]
        raw, phases = _split_action(actions, cfg.topo)
        G, over = phy.project_beamformer(raw, caps)
        refl = ris.build_reflection(phases, v[:, 1:2], v[:, 4:5], cfg.pp)
        blk = self._block
        sinrs = phy.sinrs(blk.H_s.take(cur, 0), blk.h_b.take(cur, 0), refl, G,
                          v[:, 2:3], v[:, 3:4], n_amp if any(counts) else 0)
        sum_rate = phy.rate_report(sinrs).sum_rate.tolist()

        # an unscaled G already has power <= cap; only a rescaled one can
        # round above it
        if G is not raw:
            self._violations += int(np.count_nonzero(
                phy.tx_power(G[over]) > caps[over] + CONSTRAINT_TOL))

        rows = self._rows
        self._t = t0 + n
        if nxt[-1] == len(rows):
            # the step after the last takes the first slot of a fresh block
            self._first += len(rows)
            self._draw(CHANNEL_BLOCK)
            rows = np.concatenate((rows, self._rows[:1]))
        G = G.reshape(n, -1)
        out = (np.concatenate((rows.take(nxt, 0), G.real, G.imag, phases, tail),
                              axis=1),
               [r - p for r, p in zip(sum_rate, penalty)], sum_rate, mode,
               E_total, alpha, energy, cap, penalty)
        return StepOutcome(*[f[0] for f in out] if flat else out)

    def get_state(self) -> dict:
        """Snapshot for exact run continuation: the generator state before
        the current channel block's draw, the block's length and the run's
        slot of its first row and the counters. ``set_state`` redraws the
        block from that state."""
        if self._rng is None:
            raise RuntimeError("call reset() before get_state()")
        return {
            "block_start": rng_state(restore_rng(self._block_start)),
            "block": len(self._block),
            "first": self._first,
            "t": self._t,
            "violations": self._violations,
        }

    def set_state(self, st: dict):
        self._rng = restore_rng(st["block_start"])
        self._draw(int(st["block"]))
        self._first = int(st["first"])
        self._t = int(st["t"])
        self._violations = int(st["violations"])

    def _draw(self, block: int):
        """Draws ``block`` slots and lays out their observation rows. Their
        slot settings wait for the first step that reads them, so a reset
        does not pay for them."""
        self._block_start = self._rng.bit_generator.state
        blk = sample_channel_set(self._rng, self.cfg.topo, self.cfg.cascade,
                                 block)
        h_b = blk.h_b.transpose(0, 2, 1)              # slot x B x R
        self._block, self._settings = blk, None
        self._rows = np.concatenate([
            np.full((block, 2), (self.cfg.pc.P_t, self.cfg.pc.I_thr), float),
            blk.H_s.real.reshape(block, -1),
            blk.H_s.imag.reshape(block, -1),
            np.stack([h_b.real, h_b.imag], axis=2).reshape(block, -1),
            blk.H_p.real.reshape(block, -1),
            blk.H_p.imag.reshape(block, -1),
        ], axis=1)

    def _slot_settings(self, block: ChannelBlock):
        """What each slot of ``block`` fixes for its step, whatever the
        action, and how many leading elements add amplifier noise on an
        amplifying slot. The settings come as a float array with one row
        per slot (cap, amplifying elements, noise variance, amplifier noise
        variance, gain, mode flag), and as one tuple per slot of the logged
        values (mode, harvested total, gain, energy bill, cap), the penalty
        and the amplifying elements, all Python numbers."""
        cfg = self.cfg
        ledger = ris.harvest(block.h_PB, cfg.hp)
        resolved, n_active, alpha = ris.resolve_mode(
            cfg.mode, ledger, cfg.topo.R, cfg.hp, cfg.ap)
        active = resolved == ACTIVE
        shortfall = np.maximum(0.0, cfg.hp.tau - ledger.total)
        penalty = np.where(active, cfg.penalty_weight * shortfall, 0.0)
        noise_var = np.where(active, cfg.noise.sigma_a_sq,
                             cfg.noise.sigma_b_sq)
        amp_var = np.where(n_active > 0, cfg.ap.amp_noise_var, 0.0)
        energy = ris.energy_consumed(n_active, alpha, cfg.topo.R, cfg.cp)
        cap = phy.power_cap(cfg.pc, block.g_sp)
        # a slot capped at P_t logs P_t itself, so an integer P_t from a
        # spec is logged as that integer; an integer gain stays one too
        P_t = cfg.pc.P_t
        settings = list(zip(
            resolved.tolist(), ledger.total.tolist(), alpha.tolist(),
            energy.tolist(), [P_t if c == P_t else c for c in cap.tolist()],
            penalty.tolist(), n_active.tolist()))
        values = np.stack((cap, n_active, noise_var, amp_var, alpha, active),
                          axis=1)
        # resolve_mode amplifies the same leading elements on every
        # amplifying slot, so one count serves the block
        n_amp = int(n_active.max()) if cfg.ap.amp_noise_var else 0
        return values, settings, n_amp
