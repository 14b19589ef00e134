"""Mobile artificial cells: detectors, ants, monitors, disinfectors.

Cells are data acted on by the step loop in ascending cell id. They move
by riding immune-class packets, one hop per step, so movement competes
for the same bandwidth as everything else.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from random import Random

from .signatures import CompressedSignatureDb

DETECTOR = "Detector"
ANT = "Ant"
MONITOR = "Monitor"
DISINFECTOR = "Disinfector"


@dataclass
class ArtificialCell:
    """One cell record for every kind; `kind` picks its task each step,
    and each kind's own fields default for the others."""

    cell_id: int
    kind: str
    location: int  # a moving cell keeps the node it left until its packet is delivered
    rng: Random
    born_at: int
    alive: bool = True
    pending_move: bool = False  # move packet queued but not yet forwarded
    db: CompressedSignatureDb | None = None  # Detector: the store it scans with
    component: object = None  # Detector: its entry in the defense registry
    memory: deque | None = None  # Ant: the nodes it last arrived at, newest last
    buffer: list = field(default_factory=list)  # Monitor: rows not yet flushed
    target: int = -1  # Disinfector: the node it heads for


class CellPopulation:
    """Registry supporting spawn and retirement without invalidating an
    in-progress iteration pass (iterate over a sorted snapshot).

    The World hands out cell ids from its own counter and adds cells in
    ascending id, so the registry's insertion order is id order."""

    def __init__(self):
        self._cells: dict[int, ArtificialCell] = {}
        self._last_id = -1  # the highest id added so far

    def add(self, cell: ArtificialCell) -> None:
        if cell.cell_id <= self._last_id:
            raise ValueError(f"cell id {cell.cell_id} added after id {self._last_id}")
        self._cells[cell.cell_id] = cell
        self._last_id = cell.cell_id

    def retire(self, cell_id: int) -> None:
        cell = self._cells.pop(cell_id, None)
        if cell is not None:
            cell.alive = False

    def alive_sorted(self) -> list[ArtificialCell]:
        return list(self._cells.values())

    def of_kind(self, kind: str) -> list[ArtificialCell]:
        return [c for c in self.alive_sorted() if c.kind == kind]

    def count(self, kind: str) -> int:
        return sum(1 for c in self._cells.values() if c.kind == kind)

    def oldest(self, kind: str) -> ArtificialCell | None:
        """The first live cell of `kind`: ids rise with the spawn step."""
        return next((c for c in self._cells.values() if c.kind == kind), None)

    def __len__(self) -> int:
        return len(self._cells)
