import hashlib
import random

import pytest

from immunet.signatures import CompressedSignatureDb, contains_signature

NO_FALSE_POSITIVES = 5e-324  # the smallest positive rate: its threshold is 0


class TestMembership:

    def test_single_signature_positive(self):
        sig = b"0123456789abcdef"
        db = CompressedSignatureDb([sig], 0.01)
        assert db.scan(sig)

    def test_no_false_negatives_1000(self):
        rng = random.Random(8)
        sigs = [rng.randbytes(16) for _ in range(1000)]
        db = CompressedSignatureDb(sigs, NO_FALSE_POSITIVES)
        assert all(db.scan(rng.randbytes(5) + s + rng.randbytes(7)) for s in sigs)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="^need at least one signature$"):
            CompressedSignatureDb([], 0.01)
        with pytest.raises(ValueError, match="^signatures must be non-empty$"):
            CompressedSignatureDb([b""], 0.01)

    def test_bad_fpr_rejected(self):
        with pytest.raises(ValueError):
            CompressedSignatureDb([b"abcd"], 0.0)

    def test_subnormal_fpr_builds_and_holds_its_members(self):
        """5e-324 * 2**64 truncates to 0: members are found and no payload
        without one is reported, over 10^5 random payloads."""
        sigs = [b"0123456789abcdef", b"worm-signature"]
        db = CompressedSignatureDb(sigs, NO_FALSE_POSITIVES)
        assert all(db.scan(b"--" + s) for s in sigs)
        rng = random.Random(3)
        assert not any(db.scan(rng.randbytes(64)) for _ in range(100_000))

    def test_add_keeps_no_false_negatives(self):
        """A set widened one signature at a time is a new store each time."""
        rng = random.Random(77)
        sigs = [rng.randbytes(16) for _ in range(10)]
        for i in range(3, 11):
            db = CompressedSignatureDb(sigs[:i], 0.01)
            assert all(db.scan(s) for s in sigs[:i])
        assert len(db.members) == 10

    def test_members_are_the_distinct_signatures(self):
        db = CompressedSignatureDb([b"abcd", bytearray(b"abcd"), b"efgh1234"], NO_FALSE_POSITIVES)
        assert db.members == frozenset({b"abcd", b"efgh1234"})
        assert db.scan(b"--abcd--") and db.scan(b"efgh1234")
        assert not db.scan(b"abc-efgh123")


class TestScan:

    def test_payload_with_signature_hits(self):
        sig = bytes.fromhex("a3f1c08e55d2764b9900eeab1275c3d4")
        db = CompressedSignatureDb([sig], 0.01)
        rng = random.Random(2)
        filler = rng.randbytes(20)
        assert db.scan(filler + sig + filler)

    @pytest.mark.parametrize("lengths", [(4, 16), (8, 24, 16), (1, 64)])
    def test_member_found_at_every_offset(self, lengths):
        """With no false positives to hide a miss, each member of a store of
        mixed lengths is found at every offset of a 64-byte payload."""
        rng = random.Random(f"offsets-{lengths}")
        sigs = [rng.randbytes(length) for length in lengths]
        db = CompressedSignatureDb(sigs, NO_FALSE_POSITIVES)
        for sig in sigs:
            for off in range(64 - len(sig) + 1):
                pad = rng.randbytes(64 - len(sig))
                assert db.scan(pad[:off] + sig + pad[off:]), (sig.hex(), off)

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


class TestFalsePositives:
    """A payload holding no member is reported with probability
    `target_fpr`, by a draw that depends only on the store and the payload."""

    @pytest.mark.parametrize("rate", [0.01, 0.2])
    def test_realised_rate_within_five_sigma(self, rate):
        """10^5 seeded random 64-byte payloads: the count of false positives
        lies within five binomial standard deviations of n * rate (1000 ± 160
        at 0.01, 20,000 ± 633 at 0.2)."""
        rng = random.Random(2008)
        sigs = [rng.randbytes(16), rng.randbytes(8)]
        db = CompressedSignatureDb(sigs, rate)
        n = 100_000
        hits = 0
        for _ in range(n):
            payload = rng.randbytes(64)
            assert not contains_signature(sigs, payload)
            hits += db.scan(payload)
        mean, sd = n * rate, (n * rate * (1 - rate)) ** 0.5
        assert abs(hits - mean) <= 5 * sd, (hits, mean, sd)

    def test_verdict_depends_only_on_store_and_payload(self):
        """A non-member's verdict is the same on every call and for a fresh
        store built from the same set in any order; another set draws anew."""
        rng = random.Random(11)
        sigs = [rng.randbytes(16), rng.randbytes(4), rng.randbytes(16)]
        payloads = [rng.randbytes(rng.randrange(1, 65)) for _ in range(2000)]
        payloads = [p for p in payloads if not contains_signature(sigs, p)]
        db = CompressedSignatureDb(sigs, 0.2)
        verdicts = [db.scan(p) for p in payloads]
        assert any(verdicts) and not all(verdicts)
        assert [db.scan(p) for p in payloads] == verdicts
        fresh = CompressedSignatureDb(list(reversed(sigs)) + [bytearray(sigs[0])], 0.2)
        assert [fresh.scan(p) for p in payloads] == verdicts
        other = CompressedSignatureDb(sigs[:2], 0.2)
        assert [other.scan(p) for p in payloads] != verdicts


def reference_scan(sigs, rate: float, payload: bytes) -> bool:
    """`scan` from its specification: a member occurs in the payload, or the
    payload's 8-byte blake2b digest, keyed with the 32-byte blake2b digest of
    the sorted members each prefixed with its 4-byte length, reads below
    int(rate * 2**64) as a big-endian integer."""
    members = sorted(set(sigs))
    if any(sig in payload for sig in members):
        return True
    key = hashlib.blake2b(b"".join(len(s).to_bytes(4, "big") + s for s in members),
                          digest_size=32).digest()
    draw = hashlib.blake2b(payload, digest_size=8, key=key).digest()
    return int.from_bytes(draw, "big") < int(rate * 2**64)


def scan_payloads(rng: random.Random, sigs) -> list[bytes]:
    """Empty, shorter than every member, random, and with a member planted."""
    payloads = [b"", rng.randbytes(min(len(s) for s in sigs) - 1)]
    payloads += [rng.randbytes(rng.randrange(65)) for _ in range(60)]
    for sig in rng.sample(sigs, min(len(sigs), 5)):
        pad = rng.randbytes(rng.randrange(40))
        cut = rng.randrange(len(pad) + 1)
        payloads.append(pad[:cut] + sig + pad[cut:])
    return payloads


class TestScanEquivalence:
    """`scan` gives the verdict its specification gives, written out here
    from hashlib alone."""

    @pytest.mark.parametrize("lengths", [(16,), (8,), (4, 8, 16)])
    @pytest.mark.parametrize("n", [1, 5, 30])
    @pytest.mark.parametrize("fpr", [0.7, 0.2, 0.01, 1e-4])
    def test_seeded_stores(self, fpr, n, lengths):
        rng = random.Random(f"{fpr}-{n}-{lengths}")
        sigs = [rng.randbytes(lengths[i % len(lengths)]) for i in range(n)]
        db = CompressedSignatureDb(sigs, fpr)
        verdicts = []
        for payload in scan_payloads(rng, sigs):
            verdicts.append(db.scan(payload))
            assert verdicts[-1] == reference_scan(sigs, fpr, payload), payload.hex()
        assert any(verdicts) and not all(verdicts)
