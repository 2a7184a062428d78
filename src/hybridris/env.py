"""Non-episodic MDP around the hybrid-RIS link.

Each step: harvest beacon energy, resolve the surface mode, decode the
agent's beamformer/phase action under the PU interference cap, score the
resulting sum rate, and charge the energy-shortfall penalty when the
surface amplifies without enough harvest. Runs have no terminal state; a
"run" is simply a fixed number of steps.

Channels are drawn a block of slots at a time. Everything a step needs
that its action does not change (harvest, surface setting, power cap,
penalty, energy bill, noise variance and the channel part of the
observation) is worked out for the whole block at once, and ``slots(k)``
views it for the next k steps. ``score`` weighs actions against such a view
and changes no state; ``step`` is ``slots``, ``score`` and the bookkeeping,
and scores a stack of actions against consecutive slots in one pass, with
the same bits as one step at a time; one action is a stack of one.

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
from .channel import (CascadeSpec, ChannelBlock, Topology, pu_power_gains,
                      sample_channel_set)
from .numerics import (is_count, make_rng, raise_broken, require_reals,
                       restore_rng, rng_state)
from .phy import NoiseParams, PowerConstraint
from .ris import (ACTIVE, PASSIVE, ActiveParams, ConsumptionParams,
                  HarvestParams, PassiveParams, RisMode)

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
    fading_block: int = 1   # steps per independent channel realization

    def __post_init__(self):
        require_reals(self)
        raise_broken((not self.penalty_weight >= 0,
                      "penalty_weight must be >= 0"),
                     (not is_count(self.fading_block, 1),
                      "fading_block must be an integer >= 1"))


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


class Slots(NamedTuple):
    """What the slots of k consecutive steps fix, whatever the action; each
    field but ``n_amp`` has a leading step axis."""
    H_s: np.ndarray        # k x R x A
    h_b: np.ndarray        # k x R x B
    cap: np.ndarray        # k, transmit power ceiling
    n_active: np.ndarray   # k x 1, leading elements that amplify
    noise_var: np.ndarray  # k x 1, receiver noise variance
    amp_var: np.ndarray    # k x 1, amplifier noise variance
    alpha: np.ndarray      # k x 1, amplifier gain (1.0 on passive slots)
    penalty: np.ndarray    # k, energy-shortfall penalty
    n_amp: int             # leading elements adding amplifier noise


def score(cfg: EnvConfig, slots: Slots, actions):
    """The rewards, sum rates, projected beamformers, wrapped phases and
    rescaled mask of a stack of flat actions on ``slots``; changes no state.
    Leading action axes broadcast against the step axis: k actions score k
    steps, and N candidates a one-step view. Entries outside [-1, 1] are
    taken as they are: the projection keeps the beamformer under the cap,
    and the phases wrap."""
    a = np.asarray(actions, dtype=float)
    A, B = cfg.topo.A, cfg.topo.B
    raw = (a[..., :A * B] + 1j * a[..., A * B:2 * A * B]).reshape(
        a.shape[:-1] + (A, B))
    phases = ris.wrap_phase((a[..., 2 * A * B:] + 1.0) * np.pi)
    G, rescaled = phy.project_beamformer(raw, slots.cap)
    refl = ris.build_reflection(phases, slots.n_active, slots.alpha, cfg.pp)
    # with no amplifying slot the amplifier noise term, exactly 0, is left out
    amp = (slots.n_amp if np.logical_or.reduce(slots.n_active, axis=None)
           else 0)
    sum_rate = phy.rate_report(phy.sinrs(
        slots.H_s, slots.h_b, refl, G, slots.noise_var, slots.amp_var, amp))
    return sum_rate - slots.penalty, sum_rate, G, phases, rescaled


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
        return ((self._first + len(self._block)) * self.cfg.fading_block
                - self._t)

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
        return np.concatenate((self._rows[0], np.zeros(
            self.observation_size - self._rows.shape[1])))

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
        n = len(actions)
        # the block row of each step's slot and of the step after it
        rows = self._block_rows(n + 1)
        slots = self._slots_at(rows[:-1])
        reward, sum_rate, G, phases, over = score(self.cfg, slots, actions)
        # only a rescaled G can round above its cap
        if np.logical_or.reduce(over, axis=None):
            self._violations += int(np.count_nonzero(
                phy.tx_power(G[over]) > slots.cap[over] + CONSTRAINT_TOL))

        _, logged, flags = self._settings
        mode, E_total, alpha, energy, cap = zip(
            *[logged[i] for i in rows[:-1].tolist()])
        obs_rows = self._rows
        self._t += n
        if rows[-1] == len(obs_rows):
            # the step after the last takes the first slot of a fresh block
            self._first += len(obs_rows)
            self._draw(CHANNEL_BLOCK)
            obs_rows = np.concatenate((obs_rows, self._rows[:1]))
        G = G.reshape(n, -1)
        out = (np.concatenate((obs_rows.take(rows[1:], 0), G.real, G.imag,
                               phases, slots.alpha, flags.take(rows[:-1], 0)),
                              axis=1),
               reward.tolist(), sum_rate.tolist(), mode, E_total, alpha,
               energy, cap, slots.penalty.tolist())
        return StepOutcome(*[f[0] for f in out] if flat else out)

    def slots(self, k: int = 1) -> Slots:
        """The ``Slots`` of the next k steps, 1 <= k <= ``steps_in_block``;
        reading them changes no state."""
        if self._block is None:
            raise RuntimeError("call reset() before slots()")
        if not 1 <= k <= self.steps_in_block:
            raise ValueError(f"k = {k} is not in [1, {self.steps_in_block}]")
        return self._slots_at(self._block_rows(k))

    def _slots_at(self, rows) -> Slots:
        """The ``Slots`` of the drawn block's rows ``rows``; the block's
        settings are made on the first read."""
        if self._settings is None:
            self._settings = self._slot_settings(self._block)
        block = self._settings[0]
        return Slots(*[f.take(rows, 0) for f in block[:-1]], block.n_amp)

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

    def _block_rows(self, k: int) -> np.ndarray:
        """The block row of each of the next k steps' slots."""
        return (np.arange(self._t, self._t + k) // self.cfg.fading_block
                - self._first)

    def _slot_settings(self, block: ChannelBlock):
        """The block's ``Slots``, each slot's logged values (mode, harvested
        total, gain, energy bill, cap) as Python numbers, and each slot's
        resolved-mode flag, which the observation carries."""
        cfg = self.cfg
        total = ris.harvest(block.h_PB, cfg.hp)
        active, n_active, alpha = ris.resolve_mode(
            cfg.mode, total, cfg.topo.R, cfg.hp, cfg.ap)
        shortfall = np.maximum(0.0, cfg.hp.tau - total)
        penalty = np.where(active, cfg.penalty_weight * shortfall, 0.0)
        noise_var = np.where(active, cfg.noise.sigma_a_sq,
                             cfg.noise.sigma_b_sq)
        amp_var = np.where(n_active > 0, cfg.ap.amp_noise_var, 0.0)
        energy = ris.energy_consumed(n_active, alpha, cfg.topo.R, cfg.cp)
        cap = phy.power_cap(cfg.pc, pu_power_gains(block.H_p))
        # a slot capped at P_t logs P_t itself, so an integer P_t from a
        # spec is logged as that integer; an integer gain stays one too
        P_t = cfg.pc.P_t
        logged = list(zip(
            np.where(active, ACTIVE, PASSIVE).tolist(), total.tolist(),
            alpha.tolist(), energy.tolist(),
            [P_t if c == P_t else c for c in cap.tolist()]))
        # resolve_mode amplifies the same leading elements on every
        # amplifying slot, so one count serves the block
        n_amp = int(n_active.max()) if cfg.ap.amp_noise_var else 0
        *cols, flag = [np.asarray(x, float)[:, None] for x in
                       (n_active, noise_var, amp_var, alpha, active)]
        return (Slots(block.H_s, block.h_b, cap, *cols, penalty, n_amp),
                logged, flag)
