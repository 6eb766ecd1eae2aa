"""Stable, process-independent seed derivation for reproducible experiments."""

import hashlib

import numpy as np

_SEP = b"\x1f"


def plain(value):
    """``value`` with NumPy integer and floating scalars, also inside tuples
    and lists, made the Python ``int`` and ``float`` of equal value."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if type(value) in (list, tuple):
        return type(value)(map(plain, value))
    return value


def derive_seed(*parts) -> int:
    """Derive a 64-bit seed from a tuple of hashable parts.

    Uses SHA-256 over a canonical byte encoding, so the result is stable
    across processes, platforms and Python versions (unlike ``hash()``).
    Each part is encoded as the ``repr`` of its ``plain`` value, which keeps
    full precision and does not depend on the type of a number.
    """
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, bytes):
            h.update(p)
        elif isinstance(p, (list, tuple)):
            h.update(derive_seed(*p).to_bytes(8, "little"))
        else:
            h.update(repr(plain(p)).encode())
        h.update(_SEP)
    return int.from_bytes(h.digest()[:8], "little")


def rng_from(*parts) -> np.random.Generator:
    """Generator seeded deterministically from the given parts."""
    return np.random.default_rng(derive_seed(*parts))


def as_rng(seed) -> np.random.Generator:
    """Coerce an int seed, seed tuple, Generator or None into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (list, tuple)):
        return rng_from(*seed)
    return np.random.default_rng(seed)
