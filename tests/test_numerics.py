import numpy as np
import pytest

from hybridris.numerics import (is_count, is_int, make_rng, restore_rng,
                                rng_state)
from oracles import sample_cn01


def test_cn01_unit_power():
    z = sample_cn01(make_rng(6), 100_000)
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=0.02)


def test_cn01_zero_mean():
    z = sample_cn01(make_rng(7), 100_000)
    assert np.mean(z.real) == pytest.approx(0.0, abs=0.02)
    assert np.mean(z.imag) == pytest.approx(0.0, abs=0.02)


def test_cn01_seed_replay():
    a = sample_cn01(make_rng(8), 100)
    b = sample_cn01(make_rng(8), 100)
    assert np.array_equal(a, b)


def test_cn01_rayleigh_magnitude():
    # |z|^2 is Exp(1), so P(|z| <= 1) = 1 - e^{-1}
    z = sample_cn01(make_rng(9), 100_000)
    empirical = np.mean(np.abs(z) <= 1.0)
    assert empirical == pytest.approx(1.0 - np.exp(-1.0), abs=0.01)


def test_rng_state_roundtrip():
    rng = make_rng(11)
    rng.standard_normal(17)
    st = rng_state(rng)
    expected = rng.standard_normal(5)
    clone = restore_rng(st)
    assert np.array_equal(clone.standard_normal(5), expected)


# an integer is an int or a numpy integer, and never a bool; a count is
# such an integer of at least its bound
@pytest.mark.parametrize("x,want", [
    (3, True), (np.int64(3), True), (np.uint8(0), True), (True, False),
    (np.bool_(True), False), (3.0, False), ("3", False), (None, False)])
def test_is_int(x, want):
    assert is_int(x) is want
    assert bool(is_count(x, 0)) is want
    assert not is_count(x, 4)
