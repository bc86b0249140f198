"""Deterministic seed derivation for parallel Monte Carlo work.

Every random operation in the library receives a single 64-bit seed and
derives child seeds for sub-streams by hashing (parent seed, stream label,
index). Workers can therefore run in any order, on any number of threads or
processes, and still reproduce the exact same draws. A seed is any Python
or numpy integer (data.check_seed), taken modulo 2**64.
"""
from __future__ import annotations

import hashlib
import struct

import numpy as np

from .data import check_seed

_MASK64 = (1 << 64) - 1


def child_seed(parent: int, label: str, index: int = 0) -> int:
    """Derive a 64-bit child seed from (parent, label, index)."""
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<Q", check_seed(parent, "parent") & _MASK64))
    h.update(label.encode("utf-8"))
    h.update(struct.pack("<Q", check_seed(index, "index") & _MASK64))
    return int.from_bytes(h.digest(), "little")


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(check_seed(seed) & _MASK64)


def child_rng(parent: int, label: str, index: int = 0) -> np.random.Generator:
    return make_rng(child_seed(parent, label, index))
