"""Cascaded-Rayleigh channel sampling for one network topology.

Link coefficients are products of independent unit-power complex Gaussian
factors (Rayleigh magnitude, uniform phase). The product of ``kappa``
factors keeps E[|xi|^2] = 1 at every cascade level, so sweeps over the
cascade level compare fading shape rather than mean power. No large-scale
path loss is applied.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import is_count, raise_broken

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class Topology:
    """Antenna/user counts: A transmit antennas, B SU receivers, R RIS
    elements, W PU receivers."""
    A: int = 2
    B: int = 2
    R: int = 4
    W: int = 2

    def __post_init__(self):
        raise_broken(*[(not is_count(getattr(self, name), 1),
                        f"{name} must be an integer >= 1")
                       for name in ("A", "B", "R", "W")])


@dataclass(frozen=True)
class CascadeSpec:
    """Cascade level per link family (number of multiplicative factors)."""
    kappa_s: int = 4   # SU transmitter -> RIS
    kappa_b: int = 4   # RIS -> SU receivers
    kappa_p: int = 1   # SU transmitter -> PU receivers

    def __post_init__(self):
        raise_broken(*[(not is_count(getattr(self, name), 1),
                        f"{name} must be an integer >= 1")
                       for name in ("kappa_s", "kappa_b", "kappa_p")])


@dataclass(frozen=True)
class ChannelBlock:
    """Channels of consecutive time slots, each link with a leading slot
    axis:

    H_s:  slot x R x A, SU transmitter to RIS
    h_b:  slot x R x B, RIS to the SU receivers, one column per receiver
    H_p:  slot x A x W, SU transmitter to PU receivers
    h_PB: slot x R x 1, power beacon to RIS (plain Rayleigh)
    """
    H_s: np.ndarray
    h_b: np.ndarray
    H_p: np.ndarray
    h_PB: np.ndarray

    def __len__(self) -> int:
        return self.H_s.shape[0]


def pu_power_gains(H_p: np.ndarray) -> np.ndarray:
    """Per-PU channel power gain: squared Euclidean norm of each column,
    i.e. the total gain from all transmit antennas to that PU. A leading
    slot axis is kept."""
    return np.add.reduce(np.abs(H_p) ** 2, axis=-2)


def slot_draws(topo: Topology, spec: CascadeSpec) -> list:
    """Standard normals that one slot consumes for H_s, h_b (all
    receivers), H_p and h_PB, in draw order."""
    return [2 * spec.kappa_s * topo.R * topo.A,
            2 * spec.kappa_b * topo.R * topo.B,
            2 * spec.kappa_p * topo.A * topo.W, 2 * topo.R]


def _cascade(x: np.ndarray, kappa: int, shape: tuple) -> np.ndarray:
    """Products of ``kappa`` unit-power complex Gaussian factors, from
    normals laid out along the last axis as every factor's real parts, then
    every factor's imaginary parts. Leading axes are kept; the last becomes
    ``shape``."""
    x = x.reshape(x.shape[:-1] + (2, kappa, -1))
    factors = (x[..., 0, :, :] + 1j * x[..., 1, :, :]) / SQRT2
    return np.multiply.reduce(factors, axis=-2).reshape(x.shape[:-3] + shape)


def sample_channel_set(rng: np.random.Generator, topo: Topology,
                       spec: CascadeSpec, slots: int) -> ChannelBlock:
    """Draw all channels for ``slots`` consecutive time slots at once.

    The beacon link is plain Rayleigh (cascade level 1); everything else
    uses the configured cascade levels. Within a slot the entries are drawn
    in a fixed order (H_s, each h_b column, H_p, h_PB), one slot after
    another, so a fixed seed reproduces every block byte-for-byte. One
    ``standard_normal`` call feeds the whole block: it consumes the stream
    exactly as drawing each link's factors on their own, link after link,
    would.
    """
    R, A, B, W = topo.R, topo.A, topo.B, topo.W
    draws = slot_draws(topo, spec)
    z = rng.standard_normal((slots, sum(draws)))
    ends = np.cumsum(draws)
    z_s, z_b, z_p, z_pb = (z[:, e - d:e] for d, e in zip(draws, ends))
    H_s = _cascade(z_s, spec.kappa_s, (R, A))
    h_b = _cascade(z_b.reshape(slots, B, -1), spec.kappa_b, (R,))
    h_b = np.ascontiguousarray(h_b.transpose(0, 2, 1))     # slot x R x B
    H_p = _cascade(z_p, spec.kappa_p, (A, W))
    h_PB = _cascade(z_pb, 1, (R, 1))
    return ChannelBlock(H_s=H_s, h_b=h_b, H_p=H_p, h_PB=h_PB)
