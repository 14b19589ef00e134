"""Sealed substances.

A receptor is the name of the station kind that holds it. A substance is a
payload sealed to one receptor: it opens only for a station of that kind.
The seal is this rule alone; the payload, the message itself, travels as
is and only its opener reads it.

Only the messages routed between stations are sealed; cells hold no
receptor, and a hand-over is not sealed.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Substance:
    receptor: str  # the station kind that opens the substance
    payload: object  # the message itself: a report or monitor rows
    hop_ttl: int  # station-to-station relays left, not network hops
    sid: int = -1
    visited: set[int] = field(default_factory=set)  # station ids already tried
    dest: int = -1  # id of the station the substance is addressed to


def seal(payload: object, receptor: str, hop_ttl: int) -> Substance:
    """Seal a payload for the station kind `receptor`."""
    return Substance(receptor=receptor, payload=payload, hop_ttl=hop_ttl)


def try_open(sub: Substance, held: str) -> object | None:
    """The payload when `held` is the receptor the substance is sealed to;
    otherwise None, never a partial payload."""
    return sub.payload if held == sub.receptor else None
