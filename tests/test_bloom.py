import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import filter_contains, filter_insert
from p4filter.bloom import DEFAULT_M, BloomFilter, BloomPair, bloom_hash
from p4filter.packet import FlowKey, Ipv4Address

FIXTURES = Path(__file__).parent / "fixtures"


def fk(a_host, b_host, a_port, b_port):
    return FlowKey(Ipv4Address(bytes([10, 0, a_host // 256, a_host % 256])),
                   Ipv4Address(bytes([10, 1, b_host // 256, b_host % 256])),
                   a_port, b_port)


class TestHashConformance:
    def test_published_vectors(self):
        vectors = json.loads(
            (FIXTURES / "bloom_hash_vectors.json").read_text())["vectors"]
        assert len(vectors) == 32
        for v in vectors:
            a_ip, b_ip, a_port, b_port = v["key"]
            key = FlowKey(Ipv4Address.from_text(a_ip),
                          Ipv4Address.from_text(b_ip), a_port, b_port)
            assert bloom_hash(key, v["hash_id"], v["m"]) == v["expected_index"], v

    def test_deterministic(self):
        key = fk(1, 2, 1000, 80)
        assert bloom_hash(key, 1, DEFAULT_M) == bloom_hash(key, 1, DEFAULT_M)
        assert bloom_hash(key, 2, DEFAULT_M) == bloom_hash(key, 2, DEFAULT_M)

    def test_hash_ids_disagree(self):
        key = fk(1, 2, 1000, 80)
        wide = 1 << 48
        assert bloom_hash(key, 1, wide) != bloom_hash(key, 2, wide)

    def test_neighbour_keys_disagree(self):
        wide = 1 << 48
        base = bloom_hash(fk(1, 2, 1000, 80), 1, wide)
        for other in [fk(1, 2, 1001, 80), fk(1, 2, 1000, 81),
                      fk(2, 1, 1000, 80), fk(1, 3, 1000, 80)]:
            assert bloom_hash(other, 1, wide) != base

    def test_m_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            bloom_hash(fk(1, 2, 1000, 80), 1, 1000)

    def test_uniformity(self):
        """Chi-square over 2^8 buckets for 10^5 sequential flow keys; a
        grossly non-uniform index function fails at p < 0.01."""
        m = 256
        counts = [0] * m
        for n in range(100_000):
            key = fk(n % 500, n // 500, 1024 + n % 60000, 80)
            counts[bloom_hash(key, 1, m)] += 1
        _, p = stats.chisquare(counts)
        assert p > 0.01


_address = st.binary(min_size=4, max_size=4).map(Ipv4Address)


def reference_index(key, hash_id, m):
    """bloom_hash as first written: one FNV-1a/64 loop over the key's 12
    bytes, then the splitmix64 finalizer."""
    mask = (1 << 64) - 1
    h = 0xCBF29CE484222325 ^ ((hash_id * 0x9E3779B97F4A7C15) & mask)
    a_ip, b_ip, a_port, b_port = key
    for b in a_ip + b_ip + a_port.to_bytes(2, "big") + b_port.to_bytes(2, "big"):
        h = ((h ^ b) * 0x100000001B3) & mask
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & mask
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & mask
    h ^= h >> 31
    return h & (m - 1)


class TestUnrolledHash:
    """bloom_hash reads the key's fields directly; its indices are still the
    byte loop's that the conformance fixture froze."""

    @given(a_ip=_address, b_ip=_address, a_port=st.integers(0, 65535),
           b_port=st.integers(0, 65535), hash_id=st.sampled_from([1, 2]),
           m=st.sampled_from([256, 4096]))
    @settings(max_examples=300)
    def test_index_is_the_byte_loop(self, a_ip, b_ip, a_port, b_port, hash_id, m):
        key = FlowKey(a_ip, b_ip, a_port, b_port)
        index = bloom_hash(key, hash_id, m)
        assert index == reference_index(key, hash_id, m)
        f = BloomFilter(m=m, hash_id=hash_id)
        filter_insert(f, key)
        assert f.bits == 1 << index and filter_contains(f, key)
        # the pair hashes for each of its filters itself
        pair = BloomPair.sized(m)
        pair.insert(key)
        member = pair.f1 if hash_id == 1 else pair.f2
        assert member.bits == 1 << index and member.inserted_count == 1
        assert pair.contains(key) is True


class TestBloomFilter:
    def test_m_must_be_power_of_two(self):
        for bad in (0, 3, 1000, -4096):
            with pytest.raises(ValueError):
                BloomFilter(m=bad, hash_id=1)
        BloomFilter(m=1, hash_id=1)

    def test_no_false_negatives(self):
        f = BloomFilter(m=DEFAULT_M, hash_id=1)
        keys = [fk(n % 300, n // 300, 2000 + n, 80) for n in range(500)]
        for key in keys:
            filter_insert(f, key)
        assert all(filter_contains(f, key) for key in keys)

    def test_insert_idempotent_on_bits(self):
        f = BloomFilter(m=DEFAULT_M, hash_id=1)
        key = fk(1, 2, 1000, 80)
        filter_insert(f, key)
        once = f.bits
        filter_insert(f, key)
        assert f.bits == once and f.popcount() == 1
        assert f.inserted_count == 2

    def test_popcount_bounds(self):
        f = BloomFilter(m=DEFAULT_M, hash_id=1)
        for n in range(200):
            filter_insert(f, fk(n, n + 1, 1024 + n, 80))
        assert 0 < f.popcount() <= 200


class TestBloomPair:
    def test_requires_distinct_hash_ids(self):
        with pytest.raises(ValueError):
            BloomPair(BloomFilter(hash_id=1), BloomFilter(hash_id=1))

    def test_requires_matching_size(self):
        with pytest.raises(ValueError):
            BloomPair(BloomFilter(m=256, hash_id=1),
                      BloomFilter(m=512, hash_id=2))

    def test_no_false_negatives(self):
        pair = BloomPair()
        keys = [fk(n % 300, n // 300, 2000 + n % 40000, 80)
                for n in range(2000)]
        for key in keys:
            pair.insert(key)
        assert all(pair.contains(key) for key in keys)

    def test_conjunction_of_members(self):
        """The pair answers yes exactly when both member filters do."""
        pair = BloomPair.sized(256)
        rng = random.Random(7)
        inserted = [fk(rng.randrange(100), rng.randrange(100),
                       rng.randrange(1024, 60000), 80) for _ in range(120)]
        for key in inserted:
            pair.insert(key)
        probes = inserted + [fk(rng.randrange(100), 200 + rng.randrange(100),
                                rng.randrange(1024, 60000), 443)
                             for _ in range(500)]
        for key in probes:
            both = filter_contains(pair.f1, key) and filter_contains(pair.f2, key)
            assert pair.contains(key) == both

    def test_a_miss_in_the_first_filter_skips_the_second(self, monkeypatch):
        calls = []

        def counted(key, hash_id, m):
            calls.append(hash_id)
            return bloom_hash(key, hash_id, m)

        monkeypatch.setattr("p4filter.bloom.bloom_hash", counted)
        pair, key = BloomPair(), fk(1, 2, 3000, 80)
        assert pair.contains(key) is False and calls == [1]
        pair.insert(key)
        assert calls == [1, 1, 2]
        assert pair.contains(key) is True and calls == [1, 1, 2, 1, 2]

    def test_pair_no_looser_than_single(self):
        """Requiring both hashes can only shrink the accepted set."""
        pair = BloomPair.sized(512)
        for n in range(300):
            pair.insert(fk(n % 50, n // 50, 1024 + n, 80))
        single_yes = pair_yes = 0
        for n in range(3000):
            probe = fk(60 + n % 50, 60 + n // 50, 1024 + n % 50000, 443)
            single_yes += filter_contains(pair.f1, probe)
            pair_yes += pair.contains(probe)
        assert pair_yes <= single_yes

    def test_false_positive_rate_near_analytic(self):
        """n=1000 insertions into m=4096 gives an AND-of-two-hashes false
        positive rate of (1 - e^(-1000/4096))^2 ~= 0.0469; measure with 10^5
        fresh probes and require agreement within +/-0.01."""
        pair = BloomPair.sized(4096)
        for n in range(1000):
            pair.insert(fk(n % 200, n // 200, 1024 + n, 80))
        probes = 100_000
        hits = 0
        for n in range(probes):
            probe = fk(300 + n % 200, 300 + n // 200, 1024 + n % 60000, 443)
            hits += pair.contains(probe)
        analytic = (1.0 - math.exp(-1000 / 4096)) ** 2
        assert abs(hits / probes - analytic) <= 0.01
