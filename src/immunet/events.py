"""Append-only event log with a stable line format.

Every observable fact about a run (injections, forwards, detections,
infections, ...) is an Event line; metrics and audits are computed from
the log alone so every run is replayable from its persisted log.
"""

from __future__ import annotations

# Closed set of event kinds; the line format is a stable external interface.
KINDS = (
    "Step",
    "Inject",
    "Forward",
    "Deliver",
    "Drop",
    "Evict",
    "Detect",
    "Infect",
    "Disinfect",
    "Identify",
    "CellMove",
    "SubstanceSend",
    "SubstanceOpen",
    "Spawn",
)
_KIND_SET = frozenset(KINDS)
_KIND_TOKENS = {f"kind={kind}": kind for kind in KINDS}  # parsed events share these strings


class Event:
    """One logged fact: its step, its kind and its ordered `(key, value)` fields.
    Slotted, because a run builds, keeps and reads hundreds of thousands."""

    __slots__ = ("step", "kind", "fields")

    def __init__(self, step: int, kind: str, fields: tuple[tuple[str, object], ...]):
        self.step = step
        self.kind = kind
        self.fields = fields

    def get(self, key: str, default=None):
        for k, v in self.fields:
            if k == key:
                return v
        return default

    def to_line(self) -> str:
        return f"step={self.step} kind={self.kind}" + "".join(
            [f" {k}={v}" if type(v) in _VERBATIM else f" {k}={_fmt(v)}" for k, v in self.fields])


_VERBATIM = frozenset({int, str})  # types whose log text is plain str(value)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    if isinstance(value, bytes):
        return value.hex() or "-"
    if value is None:
        return "-"
    return str(value)


class EventLog:
    """Ordered sequence of events for one run."""

    def __init__(self):
        self.events: list[Event] = []

    def append(self, step: int, kind: str, **fields) -> Event:
        if kind not in _KIND_SET:
            raise ValueError(f"unknown event kind: {kind}")
        ev = Event(step, kind, tuple(fields.items()))
        self.events.append(ev)
        return ev

    def __iter__(self):
        return iter(self.events)

    def __len__(self):
        return len(self.events)

    def to_text(self) -> str:
        return "\n".join([ev.to_line() for ev in self.events]) + ("\n" if self.events else "")

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())


class _FieldTable(dict):
    """Raw `key=value` token -> its parsed `(key, value)` field, each distinct
    token parsed on first sight. A log repeats few distinct tokens many times."""

    def __missing__(self, token: str) -> tuple[str, object]:
        key, _, raw = token.partition("=")
        field = self[token] = (key, _parse_value(raw))
        return field


def _parse(line: str, table: _FieldTable) -> Event:
    tokens = line.split()
    if len(tokens) < 2 or not tokens[0].startswith("step=") or not tokens[1].startswith("kind="):
        raise ValueError(f"malformed event line: {line.strip()!r}")
    kind = _KIND_TOKENS.get(tokens[1])
    if kind is None:
        raise ValueError(f"unknown event kind in line: {line.strip()!r}")
    return Event(int(tokens[0][5:]), kind, tuple(map(table.__getitem__, tokens[2:])))


def parse_line(line: str) -> Event:
    """Parse one `step=<int> kind=<enum> key=value ...` record."""
    return _parse(line, _FieldTable())


def _parse_value(raw: str):
    if raw == "-":
        return None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def load_log(path) -> list[Event]:
    """Parse a saved log; one field table serves every line of the file."""
    table = _FieldTable()
    with open(path, "r", encoding="utf-8") as fh:
        return [_parse(line, table) for line in fh if not line.isspace()]
