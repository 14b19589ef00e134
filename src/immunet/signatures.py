"""Signature store for detector cells.

A store is a frozen set of signature byte patterns with a declared
per-scan false-positive rate. `scan(payload)` is true when a member occurs
in the payload; otherwise it is true with probability `target_fpr`, decided
by a digest of the payload keyed with the store's members. The verdict is
a pure function of the member set and the payload, so a run keeps one store
per signature set, cells holding the same set share it, and a payload that
false-alarms does so at every detector holding that store. A wider set is
a new store.
"""

from __future__ import annotations

import hashlib


class CompressedSignatureDb:
    """Immutable exact-membership store with a declared false-positive rate."""

    def __init__(self, signatures, target_fpr: float):
        members = frozenset(bytes(s) for s in signatures)
        if not members:
            raise ValueError("need at least one signature")
        if b"" in members:
            raise ValueError("signatures must be non-empty")
        if not 0.0 < target_fpr < 1.0:
            raise ValueError("target_fpr must be in (0, 1)")
        self.members = members
        key = hashlib.blake2b(digest_size=32)
        for sig in sorted(members):  # length-prefixed: no two sets share a key text
            key.update(len(sig).to_bytes(4, "big"))
            key.update(sig)
        self._key = key.digest()
        # a payload false-alarms when its 8-byte digest reads below this as a
        # big-endian integer; a subnormal rate gives 0, so no payload does
        self._threshold = int(target_fpr * 2**64)

    def scan(self, payload: bytes) -> bool:
        """True when a member occurs in the payload, or else when the
        payload's keyed digest falls below the declared rate."""
        if contains_signature(self.members, payload):
            return True
        digest = hashlib.blake2b(payload, digest_size=8, key=self._key).digest()
        return int.from_bytes(digest, "big") < self._threshold


def contains_signature(signatures, payload: bytes) -> bool:
    """Exact substring oracle over a full signature set."""
    return any(sig in payload for sig in signatures)
