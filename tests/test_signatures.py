import hashlib
import math
import random

import pytest

from immunet.signatures import (CompressedSignatureDb, EmptySignatureSet,
                                contains_signature)


class TestMembership:

    def test_single_signature_positive(self):
        sig = b"0123456789abcdef"
        db = CompressedSignatureDb([sig], 0.01)
        assert db.contains(sig)

    def test_no_false_negatives_1000(self):
        rng = random.Random(8)
        sigs = [rng.randbytes(16) for _ in range(1000)]
        db = CompressedSignatureDb(sigs, 0.01)
        assert all(db.contains(s) for s in sigs)

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySignatureSet):
            CompressedSignatureDb([], 0.01)
        with pytest.raises(EmptySignatureSet):
            CompressedSignatureDb([b""], 0.01)

    def test_bad_fpr_rejected(self):
        with pytest.raises(ValueError):
            CompressedSignatureDb([b"abcd"], 0.0)

    def test_empirical_fpr_within_twice_target(self):
        """10^5 random non-member probes."""
        rng = random.Random(31)
        sigs = [rng.randbytes(16) for _ in range(100)]
        db = CompressedSignatureDb(sigs, 0.01)
        members = set(sigs)
        hits = 0
        for _ in range(100_000):
            probe = rng.randbytes(16)
            if probe not in members and db.contains(probe):
                hits += 1
        assert hits / 100_000 <= 2 * 0.01

    def test_size_bound(self):
        for n, fpr in ((1, 0.01), (50, 0.05), (1000, 0.001)):
            rng = random.Random(n)
            db = CompressedSignatureDb([rng.randbytes(16) for _ in range(n)], fpr)
            assert db.size_bits <= 2 * math.ceil(1.44 * n * math.log2(1.0 / fpr))

    def test_add_keeps_no_false_negatives(self):
        rng = random.Random(77)
        sigs = [rng.randbytes(16) for _ in range(10)]
        db = CompressedSignatureDb(sigs[:3], 0.01)
        for s in sigs[3:]:
            db.add(s)
        assert all(db.contains(s) for s in sigs)
        assert len(db._members) == 10
        assert db.size_bits <= 2 * math.ceil(1.44 * 10 * math.log2(100.0))


class TestScan:

    def test_payload_with_signature_hits(self):
        sig = bytes.fromhex("a3f1c08e55d2764b9900eeab1275c3d4")
        db = CompressedSignatureDb([sig], 0.01)
        rng = random.Random(2)
        filler = rng.randbytes(20)
        assert db.scan(filler + sig + filler)

    def test_window_lengths_tracked(self):
        db = CompressedSignatureDb([b"abcd", b"0123456789"], 0.01)
        assert db.window_lengths == (4, 10)

    def test_corpus_recall_and_precision(self):
        """10^4 attack + 10^4 benign packets against the exact-match oracle."""
        rng = random.Random(99)
        sig = rng.randbytes(16)
        db = CompressedSignatureDb([sig], 0.01)
        tp = fn = fp = tn = 0
        for _ in range(10_000):
            off = rng.randrange(64 - 16 + 1)
            pad = rng.randbytes(48)
            payload = pad[:off] + sig + pad[off:]
            assert contains_signature([sig], payload)  # oracle agrees it is malicious
            if db.scan(payload):
                tp += 1
            else:
                fn += 1
        while tn + fp < 10_000:
            payload = rng.randbytes(64)
            if contains_signature([sig], payload):
                continue
            if db.scan(payload):
                fp += 1
            else:
                tn += 1
        assert fn == 0                      # recall 1.0
        assert tp / (tp + fp) >= 0.98       # precision

    def test_fingerprint_changes_on_add(self):
        db = CompressedSignatureDb([b"abcd"], 0.01)
        fp1 = db.fingerprint()
        db.add(b"efgh1234")
        assert db.fingerprint() != fp1


def eager_probe_positions(key: bytes, count: int, size: int) -> list[int]:
    """Reference: all `count` distinct probe positions of `key`, hashed up
    front, as the store computed them before it learned to stop early."""
    positions: list[int] = []
    seen: set[int] = set()
    block = 0
    while len(positions) < count:
        digest = hashlib.blake2b(key, digest_size=64, salt=b"sigdb-probe-v1",
                                 person=block.to_bytes(8, "big")).digest()
        for i in range(0, 64, 4):
            pos = int.from_bytes(digest[i:i + 4], "big") % size
            if pos not in seen:
                seen.add(pos)
                positions.append(pos)
                if len(positions) == count:
                    break
        block += 1
    return positions


def eager_bits(members, count: int, size: int) -> int:
    bits = 0
    for sig in members:
        for pos in eager_probe_positions(sig, count, size):
            bits |= 1 << pos
    return bits


def eager_contains(db: CompressedSignatureDb, key: bytes) -> bool:
    return all((db._bits >> pos) & 1
               for pos in eager_probe_positions(key, db.num_probes, db.size_bits))


class TestProbeEquivalence:
    """The probe walk that stops at the first unset bit gives the verdicts
    and the bit array that testing every eagerly hashed position gives."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("fpr", [0.01, 1e-4])
    def test_store_and_verdicts_match_eager_probes(self, n, fpr):
        rng = random.Random(1000 * n + round(1 / fpr))
        sigs = [rng.randbytes(16) for _ in range(n)]
        db = CompressedSignatureDb(sigs, fpr)
        assert db._bits == eager_bits(sigs, db.num_probes, db.size_bits)
        keys = sigs + [rng.randbytes(16) for _ in range(2000)]
        verdicts = [db.contains(k) for k in keys]
        assert verdicts == [eager_contains(db, k) for k in keys]
        assert all(verdicts[:n])

    def test_walks_past_the_first_hash_block(self):
        """At fpr 1e-4 a singleton store needs more distinct probes than one
        digest has words; on dense random arrays the walk's first unset bit
        often lies in a later block, and verdicts of both kinds occur."""
        rng = random.Random(5)
        db = CompressedSignatureDb([rng.randbytes(16)], 1e-4)
        assert db.num_probes > 16
        full = (1 << db.size_bits) - 1
        verdicts = []
        for _ in range(300):
            unset = rng.getrandbits(db.size_bits) & rng.getrandbits(db.size_bits)
            db._bits = full & ~(unset & rng.getrandbits(db.size_bits)
                                & rng.getrandbits(db.size_bits))
            for _ in range(10):
                key = rng.randbytes(16)
                verdicts.append(db.contains(key))
                assert verdicts[-1] == eager_contains(db, key)
        assert any(verdicts) and not all(verdicts)

    def test_members_positive_after_each_rebuild(self):
        rng = random.Random(12)
        sigs = [rng.randbytes(length) for length in (16, 8, 16, 24, 12)]
        db = CompressedSignatureDb(sigs[:1], 1e-4)
        for i, sig in enumerate(sigs[1:], start=2):
            db.add(sig)
            assert len(db._members) == i
            assert all(db.contains(s) for s in sigs[:i])
            assert db._bits == eager_bits(sigs[:i], db.num_probes, db.size_bits)
            assert db.window_lengths == tuple(sorted({len(s) for s in sigs[:i]}))
