"""Receptor key-token pairs and sealed substances.

A receptor is a private token and the public token derived from it. A
substance is a payload sealed to a set of public tokens: it opens only
for a holder of private tokens whose derived public tokens cover that
whole set (subset semantics). The seal is this rule alone; the payload
travels as is, since nothing in the simulation reads or alters it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from random import Random

TOKEN_BYTES = 16


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
    payload: bytes
    hop_ttl: int  # station-to-station relays left, not network hops
    sid: int = -1
    visited: set[int] = field(default_factory=set)  # station ids already tried
    dest: int = -1  # id of the station the substance is addressed to


def seal(payload: bytes, required, hop_ttl: int) -> Substance:
    """Seal a payload against a set of public receptor tokens."""
    required = frozenset(bytes(t) for t in required)
    if not required:
        raise EmptyReceptorSet("substance needs at least one receptor")
    return Substance(required=required, payload=payload, hop_ttl=hop_ttl)


def try_open(sub: Substance, held) -> bytes | None:
    """The payload when the private tokens `held` cover every required
    public token; otherwise None, never a partial payload."""
    return sub.payload if sub.required <= {derive_public(bytes(p)) for p in held} else None
