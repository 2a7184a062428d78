"""Seeded random generators, and the field checks the config classes
share.

Randomness comes from counter-based Philox streams, so every experiment is
bit-reproducible and a generator's exact position can be saved and
restored.
"""

import dataclasses
import functools

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


def is_int(x) -> bool:
    """An integer, numpy's too, but not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def is_count(x, least) -> bool:
    """An integer (as ``is_int`` says) of at least ``least``."""
    return is_int(x) and x >= least


def raise_broken(*rules):
    """Raise one ValueError naming every (broken, message) rule broken."""
    errors = [msg for broken, msg in rules if broken]
    if errors:
        raise ValueError("; ".join(errors))


def is_real(x) -> bool:
    """An int or a float, numpy's too, but not a bool."""
    return (isinstance(x, (int, float, np.integer, np.floating))
            and not isinstance(x, bool))


def require_reals(cfg):
    """Raise one ValueError naming every field of the dataclass ``cfg``
    annotated ``float`` that holds no real number (a bool is none; None is
    one where it is the default).

    Config classes call it before the rules that compare those fields, so
    a wrong type names its field instead of surfacing as a TypeError.
    """
    broken = [name for name, default in _float_fields(type(cfg))
              if not (is_real(v := getattr(cfg, name))
                      or v is None and default is None)]
    if broken:
        raise ValueError("; ".join(f"{name} must be a real number"
                                   for name in broken))


@functools.cache
def _float_fields(cls) -> tuple:
    """(name, default) of every field of the dataclass ``cls`` annotated
    ``float``; configs are built often, so this is worked out once."""
    return tuple((f.name, f.default) for f in dataclasses.fields(cls)
                 if f.type is float)
