import numpy as np
import pytest

from hybridris.channel import (CascadeSpec, Topology, pu_power_gains,
                               sample_channel_set)
from hybridris.numerics import make_rng, rng_state
from oracles import naive_column_gains, sample_cascaded


class ScriptedRng:
    """Duck-typed generator returning pre-set standard_normal blocks."""

    def __init__(self, blocks):
        self.blocks = [np.asarray(b, dtype=float) for b in blocks]

    def standard_normal(self, size=None):
        return self.blocks.pop(0)


def test_cascaded_rejects_zero_level():
    with pytest.raises(ValueError):
        sample_cascaded(make_rng(0), 0)


@pytest.mark.parametrize("kappa,band", [(1, 0.03), (4, 0.15)])
def test_cascaded_unit_power(kappa, band):
    xi = sample_cascaded(make_rng(100 + kappa), kappa, 100_000)
    assert np.mean(np.abs(xi) ** 2) == pytest.approx(1.0, abs=band)


@pytest.mark.parametrize("kappa", [1, 2, 4])
def test_cascaded_mean_within_three_stderr(kappa):
    n = 100_000
    xi = sample_cascaded(make_rng(200 + kappa), kappa, n)
    power = np.abs(xi) ** 2
    stderr = np.sqrt((2.0 ** kappa - 1.0) / n)
    assert abs(np.mean(power) - 1.0) <= 3.0 * stderr


def test_cascaded_phase_addition():
    # two factors forced to unit magnitude with phases pi/2 and pi;
    # sample_cn01 draws all real parts first, then all imaginary parts
    s = np.sqrt(2.0)
    rng = ScriptedRng([[0.0, -s], [s, 0.0]])
    xi = sample_cascaded(rng, 2)
    assert xi == pytest.approx(np.exp(1j * 3 * np.pi / 2))


def slot_bytes(block, i) -> bytes:
    """Raw bytes of every link of slot i of a channel block, h_b laid out
    receiver by receiver, and of slot i of the block's per-PU gains."""
    return b"".join([block.H_s[i].tobytes(), block.H_p[i].tobytes(),
                     block.h_PB[i].tobytes(), block.h_b[i].T.tobytes(),
                     pu_power_gains(block.H_p)[i].tobytes()])


def replay_slot(rng, topo, spec) -> bytes:
    """One slot drawn link by link in the order H_s, each h_b column, H_p,
    h_PB, as ``slot_bytes`` lays it out."""
    H_s = sample_cascaded(rng, spec.kappa_s, (topo.R, topo.A))
    cols = [sample_cascaded(rng, spec.kappa_b, (topo.R, 1))
            for _ in range(topo.B)]
    H_p = sample_cascaded(rng, spec.kappa_p, (topo.A, topo.W))
    h_PB = sample_cascaded(rng, 1, (topo.R, 1))
    return b"".join([H_s.tobytes(), H_p.tobytes(), h_PB.tobytes(),
                     *(c.tobytes() for c in cols),
                     pu_power_gains(H_p).tobytes()])


def test_channel_set_shapes():
    topo = Topology(A=2, B=2, R=4, W=2)
    ch = sample_channel_set(make_rng(1), topo, CascadeSpec(), 1)
    assert len(ch) == 1
    assert ch.H_s.shape == (1, 4, 2)
    assert ch.h_b.shape == (1, 4, 2)
    assert ch.H_p.shape == (1, 2, 2)
    assert ch.h_PB.shape == (1, 4, 1)
    assert pu_power_gains(ch.H_p).shape == (1, 2)


def test_gains_zero_column():
    assert pu_power_gains(np.zeros((3, 1), dtype=complex)).tolist() == [0.0]


def test_gains_match_scalar_loop():
    ch = sample_channel_set(make_rng(2), Topology(), CascadeSpec(), 1)
    expected = naive_column_gains(ch.H_p[0])
    gains = pu_power_gains(ch.H_p)
    assert np.allclose(gains[0], expected, atol=1e-12)
    assert np.all(gains >= 0)


def test_gains_invariant_under_column_phase():
    ch = sample_channel_set(make_rng(3), Topology(), CascadeSpec(), 1)
    rotated = ch.H_p[0].copy()
    rotated[:, 0] *= np.exp(1j * 0.7)
    assert np.allclose(pu_power_gains(rotated), pu_power_gains(ch.H_p)[0],
                       atol=1e-12)


def test_fixed_seed_bitwise_identical():
    topo = Topology(A=2, B=3, R=5, W=2)
    spec = CascadeSpec(kappa_s=2, kappa_b=3, kappa_p=1)
    a = sample_channel_set(make_rng(42), topo, spec, 1)
    b = sample_channel_set(make_rng(42), topo, spec, 1)
    assert slot_bytes(a, 0) == slot_bytes(b, 0)


def test_receiver_channels_are_sequential_column_draws():
    # each receiver's column is its own (R, 1) draw, taken in receiver
    # order right after H_s; one (R, B) draw would use the stream in
    # another order and change every channel
    topo = Topology(A=2, B=3, R=5, W=2)
    spec = CascadeSpec(kappa_s=2, kappa_b=3, kappa_p=1)
    block = sample_channel_set(make_rng(42), topo, spec, 1)
    assert slot_bytes(block, 0) == replay_slot(make_rng(42), topo, spec)


@pytest.mark.parametrize("topo,spec", [
    (Topology(A=1, B=1, R=1, W=1), CascadeSpec(1, 1, 1)),
    (Topology(), CascadeSpec()),
    (Topology(A=2, B=3, R=5, W=2), CascadeSpec(2, 3, 1)),
    (Topology(A=3, B=2, R=8, W=1), CascadeSpec(3, 5, 5)),
    (Topology(A=4, B=4, R=16, W=3), CascadeSpec(5, 2, 3)),
], ids=["A1B1R1W1", "default", "A2B3R5W2", "A3B2R8W1", "A4B4R16W3"])
@pytest.mark.parametrize("slots", [1, 5, 64])
def test_block_draw_equals_per_slot_replay(topo, spec, slots):
    # one standard_normal call for the whole block consumes the stream as
    # the per-link draws do, slot after slot, and leaves the same position
    rng, replay = make_rng(17), make_rng(17)
    block = sample_channel_set(rng, topo, spec, slots)
    assert len(block) == slots
    for i in range(slots):
        assert slot_bytes(block, i) == replay_slot(replay, topo, spec)
    assert rng_state(rng) == rng_state(replay)


def test_cascade_spec_validation():
    with pytest.raises(ValueError):
        CascadeSpec(kappa_s=0)
    with pytest.raises(ValueError):
        Topology(A=0)
