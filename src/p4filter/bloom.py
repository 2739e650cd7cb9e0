"""Bloom-filter pair that records internally initiated flows.

Two filters with independent hash family members are ANDed on membership
queries, which squares the false-positive rate at the cost of one extra bit
per flow. Hash constants are frozen by the conformance fixture
(tests/fixtures/bloom_hash_vectors.json); changing them is a format break.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .packet import FlowKey

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_SEED_MULT = 0x9E3779B97F4A7C15

DEFAULT_M = 4096


def bloom_hash(key: FlowKey, hash_id: int, m: int) -> int:
    """Index in [0, m) for a flow key; m must be a power of two.

    Seeded FNV-1a/64 over the key's 12 bytes (the two addresses, then the
    two ports big-endian) with a splitmix64 finalizer; the seed folds in
    hash_id so distinct ids act as independent family members.
    """
    if m <= 0 or m & (m - 1):
        raise ValueError(f"m must be a power of two, got {m}")
    a_ip, b_ip, a_port, b_port = key
    h = _FNV_OFFSET ^ ((hash_id * _SEED_MULT) & _MASK64)
    # A round's XOR with a byte touches only the low 8 bits, so reducing
    # mod 2^64 once after several rounds gives what reducing after each one
    # gives; the reductions only keep the integer short.
    for b in a_ip:
        h = (h ^ b) * _FNV_PRIME
    h &= _MASK64
    for b in b_ip:
        h = (h ^ b) * _FNV_PRIME
    h &= _MASK64
    # the ports, one byte a round
    h = (h ^ (a_port >> 8)) * _FNV_PRIME
    h = (h ^ (a_port & 0xFF)) * _FNV_PRIME
    h = (h ^ (b_port >> 8)) * _FNV_PRIME
    h = ((h ^ (b_port & 0xFF)) * _FNV_PRIME) & _MASK64
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & _MASK64
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & _MASK64
    h ^= h >> 31
    return h & (m - 1)


@dataclass
class BloomFilter:
    m: int = DEFAULT_M
    hash_id: int = 1
    bits: int = 0            # bitmask of length m
    inserted_count: int = 0

    def __post_init__(self):
        if self.m <= 0 or self.m & (self.m - 1):
            raise ValueError(f"m must be a power of two, got {self.m}")

    def popcount(self) -> int:
        return self.bits.bit_count()


@dataclass
class BloomPair:
    f1: BloomFilter = field(default_factory=lambda: BloomFilter(hash_id=1))
    f2: BloomFilter = field(default_factory=lambda: BloomFilter(hash_id=2))

    def __post_init__(self):
        if self.f1.hash_id == self.f2.hash_id:
            raise ValueError("filters must use distinct hash ids")
        if self.f1.m != self.f2.m:
            raise ValueError("filters must share one size")

    @classmethod
    def sized(cls, m: int) -> "BloomPair":
        return cls(BloomFilter(m=m, hash_id=1), BloomFilter(m=m, hash_id=2))

    # The pair sets and tests each member filter's bit itself: a filter has
    # no insert or query of its own, so the bit rule is written once, here.
    def insert(self, key: FlowKey) -> None:
        f1, f2 = self.f1, self.f2
        f1.bits |= 1 << bloom_hash(key, f1.hash_id, f1.m)
        f1.inserted_count += 1
        f2.bits |= 1 << bloom_hash(key, f2.hash_id, f2.m)
        f2.inserted_count += 1

    def contains(self, key: FlowKey) -> bool:
        """Membership requires BOTH filters to agree (AND semantics); the
        second filter is not hashed when the first says no."""
        f1, f2 = self.f1, self.f2
        return bool(f1.bits >> bloom_hash(key, f1.hash_id, f1.m) & 1
                    and f2.bits >> bloom_hash(key, f2.hash_id, f2.m) & 1)
