"""Compressed signature store for detector cells.

An approximate-membership bit array over fixed-length signature byte
patterns: member signatures always test positive, non-members may rarely
false-positive. Payload scanning slides windows of each registered
signature length across the payload. Sized at twice the classic
1.44*n*log2(1/p) bit bound, which buys an empirical false-positive rate
well under the configured target even after windowed scanning.

A store is an immutable value: its bits depend only on its member set
and target rate, so a run keeps one store per signature set and cells
holding the same set share it; a wider set is a new store.

`_probe_mask` defines the probe walk, and `__init__` (to set member bits)
and `contains` use it. `scan`, the hot path of detector cells, inlines
the same walk per window; tests/test_signatures.py pins its verdicts
equal to `contains` on every window.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct


_SALT = b"sigdb-probe-v1"
_WORDS = struct.Struct(">16I")  # one 64-byte digest as 16 probe words
_EACH_WORD = struct.Struct(">I").iter_unpack  # a digest's probe words, one at a time


@functools.cache
def _block_state(block: int):
    """The salted blake2b state personalised with probe block `block`;
    callers hash a key into a `.copy()` of it."""
    return hashlib.blake2b(digest_size=64, salt=_SALT, person=block.to_bytes(8, "big"))


class CompressedSignatureDb:
    """Immutable approximate-membership structure over signature byte patterns."""

    def __init__(self, signatures, target_fpr: float):
        members = frozenset(bytes(s) for s in signatures)
        if not members:
            raise ValueError("need at least one signature")
        if b"" in members:
            raise ValueError("signatures must be non-empty")
        if not 0.0 < target_fpr < 1.0:
            raise ValueError("target_fpr must be in (0, 1)")
        self.members = members
        n = len(members)
        self.size_bits = 2 * math.ceil(1.44 * n * -math.log2(target_fpr))
        self.num_probes = min(max(1, round(self.size_bits / n * math.log(2))),
                              self.size_bits)
        self.window_lengths = tuple(sorted({len(s) for s in members}))
        bits = 0
        for sig in members:
            bits |= self._probe_mask(sig, -1)  # -1 has every bit set: walk all probes
        self._bits = bits

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

    def contains(self, key: bytes) -> bool:
        bits = self._bits
        return not self._probe_mask(key, bits) & ~bits

    def scan(self, payload: bytes) -> bool:
        """True when any payload window of a registered length tests positive.

        The verdict of `contains` on every window, with the walk that
        `_probe_mask` defines inlined: a digest's words are read one at a
        time, and a block past 0 is hashed only when the walk reaches it.
        The bit is tested before distinctness; a repeated probe was already
        found set, so an unset bit ends the walk either way.
        """
        bits = self._bits
        size = self.size_bits
        probes = self.num_probes
        copy0 = _block_state(0).copy
        each_word = _EACH_WORD
        for length in self.window_lengths:
            for off in range(len(payload) - length + 1):
                key = payload[off:off + length]
                state = copy0()
                state.update(key)
                block = 0
                left = probes
                seen = 0
                while True:
                    for (word,) in each_word(state.digest()):
                        mask = 1 << word % size
                        if not bits & mask:
                            break
                        if not seen & mask:
                            seen |= mask
                            left -= 1
                            if not left:
                                return True
                    else:  # no word of this block ended the walk: hash the next
                        block += 1
                        state = _block_state(block).copy()
                        state.update(key)
                        continue
                    break
        return False


def contains_signature(signatures, payload: bytes) -> bool:
    """Exact substring oracle over a full signature set."""
    return any(sig in payload for sig in signatures)
