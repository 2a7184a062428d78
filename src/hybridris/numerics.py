"""Seeded random sampling.

Randomness comes from counter-based Philox streams, so every experiment is
bit-reproducible and a generator's exact position can be saved and
restored.
"""

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for the given 64-bit seed.

    Identical seeds yield identical sample streams; distinct seeds give
    independent streams.
    """
    return np.random.Generator(np.random.Philox(seed))


def rng_state(rng: np.random.Generator) -> dict:
    """JSON-serializable snapshot of a generator's exact position."""
    def enc(v):
        if isinstance(v, dict):
            return {k: enc(x) for k, x in v.items()}
        if isinstance(v, np.ndarray):
            return {"__ndarray__": v.tolist(), "dtype": str(v.dtype)}
        if isinstance(v, (np.integer,)):
            return int(v)
        return v
    return enc(rng.bit_generator.state)


def restore_rng(state: dict) -> np.random.Generator:
    """Rebuild a generator at the exact position captured by rng_state
    (a raw ``bit_generator.state`` dict works too)."""
    def dec(v):
        if isinstance(v, dict):
            if "__ndarray__" in v:
                return np.array(v["__ndarray__"], dtype=v["dtype"])
            return {k: dec(x) for k, x in v.items()}
        return v
    st = dec(state)
    bg = getattr(np.random, st["bit_generator"])()
    bg.state = st
    return np.random.Generator(bg)


def sample_cn01(rng: np.random.Generator, size=None):
    """Unit-power circularly-symmetric complex Gaussian samples.

    Real and imaginary parts are independent Gaussians with variance 1/2,
    so E[|z|^2] = 1 and |z| is Rayleigh distributed.
    """
    re = rng.standard_normal(size)
    im = rng.standard_normal(size)
    return (re + 1j * im) / np.sqrt(2.0)
