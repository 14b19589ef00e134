"""Compressed signature store for detector cells.

An approximate-membership bit array over fixed-length signature byte
patterns: member signatures always test positive, non-members may rarely
false-positive. Payload scanning slides windows of each registered
signature length across the payload. Sized at twice the classic
1.44*n*log2(1/p) bit bound, which buys an empirical false-positive rate
well under the configured target even after windowed scanning.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct


class EmptySignatureSet(ValueError):
    pass


_SALT = b"sigdb-probe-v1"
_WORDS = struct.Struct(">16I")  # one 64-byte digest as 16 probe words


@functools.cache
def _block_state(block: int):
    """The salted blake2b state personalised with probe block `block`;
    callers hash a key into a `.copy()` of it."""
    return hashlib.blake2b(digest_size=64, salt=_SALT, person=block.to_bytes(8, "big"))


class CompressedSignatureDb:
    """Approximate-membership structure over signature byte patterns."""

    def __init__(self, signatures, target_fpr: float):
        sigs = [bytes(s) for s in signatures]
        if not sigs:
            raise EmptySignatureSet("need at least one signature")
        if any(len(s) == 0 for s in sigs):
            raise EmptySignatureSet("signatures must be non-empty")
        if not 0.0 < target_fpr < 1.0:
            raise ValueError("target_fpr must be in (0, 1)")
        self.target_fpr = target_fpr
        self._rebuild(set(sigs))

    def _rebuild(self, members: set[bytes]) -> None:
        """Size the array for exactly `members` and set their probe bits."""
        n = len(members)
        self.size_bits = 2 * math.ceil(1.44 * n * math.log2(1.0 / self.target_fpr))
        self.num_probes = min(max(1, round(self.size_bits / n * math.log(2))),
                              self.size_bits)
        bits = 0
        for sig in members:
            bits |= self._probe_mask(sig, -1)  # -1 has every bit set: walk all probes
        self._bits = bits
        self._members = members
        self.window_lengths = tuple(sorted({len(s) for s in members}))
        self._fingerprint = None

    def _probe_mask(self, key: bytes, within: int) -> int:
        """Mask of `key`'s probe bits, walked in order until one is not set
        in `within` or num_probes distinct ones are seen.

        Probe positions are the successive 32-bit words of the salted
        blake2b digests of `key` for blocks 0, 1, ..., reduced mod
        size_bits, with repeats skipped. Distinctness keeps the
        false-positive rate tight on the tiny arrays a near-singleton store
        gets; colliding probes would make the realised rate a per-signature
        lottery. A block is hashed only when the walk reaches it, so most
        non-members cost one digest.
        """
        size = self.size_bits
        left = self.num_probes
        seen = 0
        block = 0
        while True:
            state = _block_state(block).copy()
            state.update(key)
            for word in _WORDS.unpack(state.digest()):
                mask = 1 << word % size
                if seen & mask:
                    continue
                seen |= mask
                if not within & mask:
                    return seen
                left -= 1
                if not left:
                    return seen
            block += 1

    def add(self, sig: bytes) -> None:
        """Insert one signature, resizing so the fpr target keeps holding."""
        sig = bytes(sig)
        if not sig:
            raise EmptySignatureSet("signatures must be non-empty")
        if sig not in self._members:
            self._rebuild(self._members | {sig})

    def contains(self, key: bytes) -> bool:
        bits = self._bits
        return not self._probe_mask(key, bits) & ~bits

    def fingerprint(self) -> tuple:
        # identifies db contents so identical stores can share scan results
        if self._fingerprint is None:
            digest = hashlib.blake2b(
                self._bits.to_bytes((self.size_bits + 7) // 8, "big"),
                digest_size=8).digest()
            self._fingerprint = (self.size_bits, self.num_probes, digest)
        return self._fingerprint

    def scan(self, payload: bytes) -> bool:
        """True when any payload window of a registered length tests positive."""
        contains = self.contains
        for length in self.window_lengths:
            for off in range(len(payload) - length + 1):
                if contains(payload[off:off + length]):
                    return True
        return False


def contains_signature(signatures, payload: bytes) -> bool:
    """Exact substring oracle over a full signature set."""
    return any(sig in payload for sig in signatures)
