"""Fixed stations: lymph nodes, cell nurseries, and the administrator sink.

A station carries its hop count to every node, so the nearest station is
read from the records alone. A station that cannot open a substance
forwards it to the nearest station not yet tried, so anything openable
somewhere reaches an opener within station-count legs. Lymph nodes react
to infection reports by spawning disinfectors and pushing signatures to
nearby detectors; nurseries periodically release fresh cells carrying
their trained signatures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .receptors import Substance
from .signatures import CompressedSignatureDb

LYMPH = "Lymph"
NURSERY = "Nursery"
ADMIN = "Admin"


@dataclass
class Station:
    """One station record for every kind; each kind's own fields default
    for the others."""

    station_id: int  # its index in `World.stations`
    kind: str
    node: int
    hops: dict[int, int]  # hop count between its node and each node, the same both ways
    inbox: list[Substance] = field(default_factory=list)
    # Lymph: (node, attack) -> last disinfector spawn step, for deduplication
    last_spawn: dict[tuple[int, int | None], int] = field(default_factory=dict)
    # Nursery: the shared store its released detectors carry; None for no signatures
    store: CompressedSignatureDb | None = None
    received: list[dict] = field(default_factory=list)  # Admin: opened monitor messages


def next_station(stations: list[Station], current: Station, sub: Substance) -> Station | None:
    """Nearest station the substance has not tried yet; ties go to the
    smaller station id. None when every station has been visited."""
    untried = [st for st in stations
               if st.station_id != current.station_id and st.station_id not in sub.visited]
    return nearest_station(untried, current.node)


def nearest_station(stations: list[Station], node: int) -> Station | None:
    """Station fewest hops from `node`, ties to the smaller station id;
    None when there is no station."""
    return min(stations, key=lambda st: (st.hops[node], st.station_id), default=None)
