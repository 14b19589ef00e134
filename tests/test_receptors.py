import random

import pytest

from immunet import receptors
from immunet.receptors import EmptyReceptorSet, derive_public, gen_receptor, seal, try_open


class TestReceptors:

    def test_generated_pair_matches(self, rng):
        r = gen_receptor(rng)
        assert derive_public(r.private) == r.public

    def test_cross_pair_no_match(self, rng):
        a = gen_receptor(rng)
        b = gen_receptor(rng)
        assert derive_public(b.private) != a.public
        assert derive_public(a.private) != b.public

    def test_deterministic_under_seed(self):
        a = gen_receptor(random.Random(55))
        b = gen_receptor(random.Random(55))
        assert a == b

    def test_no_cross_matches_10k(self, rng):
        """All-pairs scan over 10^4 receptors.

        priv_j matches pub_i iff derive_public(priv_j) == pub_i, so distinct
        derived publics imply zero cross matches; a direct quadratic scan
        over a slice confirms the reduction.
        """
        pairs = [gen_receptor(rng) for _ in range(10_000)]
        derived = [derive_public(p.private) for p in pairs]
        assert len(set(derived)) == len(pairs)
        for i, p in enumerate(pairs):
            assert derived[i] == p.public
        for a in pairs[:200]:
            for b in pairs[:200]:
                assert (derive_public(b.private) == a.public) == (a is b)


class TestSubstances:

    def test_round_trip_exact_holders(self, rng):
        r1, r2 = gen_receptor(rng), gen_receptor(rng)
        sub = seal(b"hello cells", {r1.public, r2.public}, hop_ttl=4)
        assert try_open(sub, {r1.private, r2.private}) == b"hello cells"

    def test_missing_private_no_match(self, rng):
        r1, r2 = gen_receptor(rng), gen_receptor(rng)
        sub = seal(b"secret", {r1.public, r2.public}, hop_ttl=4)
        assert try_open(sub, {r1.private}) is None

    def test_empty_held_no_match(self, rng):
        r = gen_receptor(rng)
        sub = seal(b"secret", {r.public}, hop_ttl=4)
        assert try_open(sub, set()) is None

    def test_superset_opens(self, rng):
        r1, r2, r3 = (gen_receptor(rng) for _ in range(3))
        sub = seal(b"x", {r1.public}, hop_ttl=1)
        assert try_open(sub, {r1.private, r2.private, r3.private}) == b"x"

    def test_empty_receptor_set_rejected(self):
        with pytest.raises(EmptyReceptorSet):
            seal(b"payload", set(), hop_ttl=1)

    def test_ciphertext_differs_from_payload(self, rng):
        r = gen_receptor(rng)
        payload = bytes(range(64))
        sub = seal(payload, {r.public}, hop_ttl=1)
        assert sub.ciphertext != payload

    def test_tamper_detected(self, rng):
        r = gen_receptor(rng)
        sub = seal(b"payload-bytes", {r.public}, hop_ttl=1)
        sub.ciphertext = bytes([sub.ciphertext[0] ^ 1]) + sub.ciphertext[1:]
        assert try_open(sub, {r.private}) is None

    def test_round_trip_fuzz_1000(self, rng):
        pool = [gen_receptor(rng) for _ in range(12)]
        for _ in range(1000):
            payload = rng.randbytes(rng.randrange(0, 200))
            chosen = rng.sample(pool, rng.randint(1, 4))
            sub = seal(payload, {r.public for r in chosen}, hop_ttl=3)
            assert try_open(sub, {r.private for r in chosen}) == payload

    def test_open_iff_subset_10k(self, rng):
        """Randomized required/held pairs agree with the subset predicate."""
        pool = [gen_receptor(rng) for _ in range(10)]
        for _ in range(10_000):
            required = rng.sample(pool, rng.randint(1, 5))
            held = rng.sample(pool, rng.randrange(0, 10))
            sub = seal(b"m", {r.public for r in required}, hop_ttl=1)
            opened = try_open(sub, {r.private for r in held})
            should_open = set(required) <= set(held)
            assert (opened == b"m") == should_open
            if not should_open:
                assert opened is None  # never partial plaintext


class TestXor:

    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 200])
    def test_seal_equals_bytewise_xor(self, rng, length):
        """Ciphertexts equal the per-byte XOR that `seal` made before, for
        payloads with leading and trailing zero bytes too."""
        recipient = gen_receptor(rng)
        noise = bytes(rng.randrange(256) for _ in range(length))
        for payload in (bytes(length), b"\xff" * length, noise,
                        b"\x00" + noise[1:] if length else b""):
            sub = seal(payload, {recipient.public}, hop_ttl=3)
            key = receptors._stream_key(sub.required)
            stream = receptors._keystream(key, length)
            assert sub.ciphertext == bytes(a ^ b for a, b in zip(payload, stream))
            assert len(sub.ciphertext) == length
            assert try_open(sub, {recipient.private}) == payload
