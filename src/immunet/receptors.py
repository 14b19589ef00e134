"""Receptor key-token pairs and sealed substances.

A receptor is a public/private token pair; a substance is a message
sealed against a set of public tokens and openable only by a holder of
every matching private token (subset semantics). The default scheme is a
deterministic keyed stream with a 64-bit integrity tag: it enforces
matching semantics for the simulation, not production secrecy.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from random import Random

TOKEN_BYTES = 16
TAG_BYTES = 8


class EmptyReceptorSet(ValueError):
    pass


@dataclass(frozen=True)
class Receptor:
    public: bytes
    private: bytes


def derive_public(private: bytes) -> bytes:
    return hashlib.sha256(b"receptor-public:" + private).digest()[:TOKEN_BYTES]


def gen_receptor(rng: Random) -> Receptor:
    private = rng.getrandbits(8 * TOKEN_BYTES).to_bytes(TOKEN_BYTES, "big")
    return Receptor(public=derive_public(private), private=private)


@dataclass
class Substance:
    required: frozenset[bytes]
    ciphertext: bytes
    tag: bytes
    hop_ttl: int  # station-to-station relays left, not network hops
    sid: int = -1
    visited: set[int] = field(default_factory=set)  # station ids already tried
    dest: int = -1  # id of the station the substance is addressed to


def _stream_key(required: frozenset[bytes]) -> bytes:
    h = hashlib.sha256(b"substance-key:")
    for token in sorted(required):
        h.update(token)
    return h.digest()


def _keystream(key: bytes, length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        out.extend(hashlib.sha256(key + counter.to_bytes(8, "big")).digest())
        counter += 1
    return bytes(out[:length])


def _xor(data: bytes, key: bytes) -> bytes:
    """`data` XOR an equally long `key`, as one big-integer XOR in C."""
    return (int.from_bytes(data, "big") ^ int.from_bytes(key, "big")).to_bytes(len(data), "big")


def seal(payload: bytes, required, hop_ttl: int) -> Substance:
    """Seal a payload against a set of public receptor tokens."""
    required = frozenset(bytes(t) for t in required)
    if not required:
        raise EmptyReceptorSet("substance needs at least one receptor")
    key = _stream_key(required)
    ciphertext = _xor(payload, _keystream(key, len(payload)))
    tag = hashlib.sha256(key + b"|tag|" + ciphertext).digest()[:TAG_BYTES]
    return Substance(required=required, ciphertext=ciphertext, tag=tag, hop_ttl=hop_ttl)


def try_open(sub: Substance, held) -> bytes | None:
    """Open a substance with a set of private tokens.

    Returns the payload when the held tokens cover every required public
    token and the tag verifies; otherwise None, never partial plaintext.
    """
    derived = {derive_public(bytes(p)) for p in held}
    if not sub.required <= derived:
        return None
    key = _stream_key(sub.required)
    expected = hashlib.sha256(key + b"|tag|" + sub.ciphertext).digest()[:TAG_BYTES]
    if expected != sub.tag:
        return None
    return _xor(sub.ciphertext, _keystream(key, len(sub.ciphertext)))
