"""Stage-labeled seed derivation so one run seed drives every stochastic stage."""

from __future__ import annotations

_MASK64 = 0xFFFFFFFFFFFFFFFF


def derive_seed(seed: int, label: str) -> int:
    """Mix a 64-bit seed with a stable hash of the stage label."""
    import hashlib  # here, so that report never loads it

    h = int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")
    return (seed ^ h) & _MASK64
