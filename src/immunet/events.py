"""Append-only event log with a stable line format.

Every observable fact about a run (injections, forwards, detections,
infections, ...) is an Event line; metrics and audits are computed from
the log alone so every run is replayable from its persisted log.
"""

from __future__ import annotations

from typing import Iterator

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
    """One logged fact: its step, its kind and its fields, a `key -> value`
    dict in the order the line writes them. Slotted, because a run builds,
    keeps and reads hundreds of thousands. Field values are ints, bools,
    floats, strings, bytes or None, and a dict that holds only such values
    is never tracked by the cyclic garbage collector, so a kept event is one
    tracked object."""

    __slots__ = ("step", "kind", "fields")

    def __init__(self, step: int, kind: str, fields: dict[str, object]):
        self.step = step
        self.kind = kind
        self.fields = fields

    def get(self, key: str, default=None):
        return self.fields.get(key, default)

    def to_line(self) -> str:
        return f"step={self.step} kind={self.kind}" + "".join(
            [f" {k}={v}" if type(v) in _VERBATIM else f" {k}=-" if v is None else f" {k}={_fmt(v)}"
             for k, v in self.fields.items()])


_VERBATIM = frozenset({int, str})  # types whose log text is plain str(value)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    if isinstance(value, bytes):
        return value.hex() or "-"
    return str(value)


class EventLog:
    """Ordered sequence of events for one run."""

    def __init__(self):
        self.events: list[Event] = []

    def append(self, step: int, kind: str, **fields) -> Event:
        if kind not in _KIND_SET:
            raise ValueError(f"unknown event kind: {kind}")
        ev = Event(step, kind, fields)  # the call's own keyword dict, in call order
        self.events.append(ev)
        return ev

    def __len__(self):
        return len(self.events)

    def to_text(self) -> str:
        return "\n".join([ev.to_line() for ev in self.events]) + ("\n" if self.events else "")

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())


class LogFormatError(ValueError):
    """A log line that is not `step=<int> kind=<enum> key=value ...`;
    `load_log` prefixes the message with the file and the line's number."""

    def __init__(self, reason: str, line: str, where: str = ""):
        super().__init__(f"{where}{reason}: {line.strip()!r}")
        self.reason = reason
        self.line = line


# A parse table holds at most this many tokens: it is cleared when full, so a
# streamed replay of any horizon holds a bounded table (a log adds a `pid=`
# token per packet). The seed-42 benchmark logs have at most 45,320.
_TABLE_LIMIT = 1 << 16


class _FieldTable(dict):
    """Raw `key=value` token -> its parsed `(key, value)` field, each distinct
    token parsed on first sight. A log repeats few distinct tokens many times."""

    def __missing__(self, token: str) -> tuple[str, object]:
        key, eq, raw = token.partition("=")
        if not eq:
            raise ValueError(f"field token without '=': {token!r}")
        if len(self) >= _TABLE_LIMIT:
            self.clear()
        field = self[token] = (key, _parse_value(raw))
        return field


class _StepTable(dict):
    """`step=<int>` token -> its step, parsed on first sight: a log repeats
    each step's token on every event of that step."""

    def __missing__(self, token: str) -> int:
        if not token.startswith("step="):
            raise ValueError(f"malformed step token: {token!r}")
        if len(self) >= _TABLE_LIMIT:
            self.clear()
        step = self[token] = int(token[5:])
        return step


def _parse(lines) -> Iterator[Event]:
    """Parse `step=<int> kind=<enum> key=value ...` records, skipping blank
    lines; one field table and one step table serve every line. A bad line
    raises `LogFormatError`."""
    field, steps = _FieldTable().__getitem__, _StepTable()
    for line in lines:
        tokens = line.split()
        if not tokens:
            continue
        try:
            kind = _KIND_TOKENS.get(tokens[1]) if len(tokens) > 1 else None
            if kind is None:
                raise ValueError("malformed line or unknown event kind")
            fields = dict(map(field, tokens[2:]))
            if len(fields) < len(tokens) - 2:
                raise ValueError("repeated field key in line")
            step = steps[tokens[0]]
        except ValueError as exc:
            raise LogFormatError(str(exc), line) from None
        yield Event(step, kind, fields)


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


def load_log(path) -> Iterator[Event]:
    """Stream a saved log: a generator that opens the file on its first
    `next()`, yields each event as its line is parsed and closes the file
    when the stream ends, fails or is closed. It holds one event at a time;
    `list(load_log(path))` holds them all. Errors surface while the stream
    is consumed, not at the call: `OSError` for a file that cannot be
    opened, `UnicodeDecodeError` for text that is not UTF-8, and
    `LogFormatError` naming the file and the line's number for a bad line,
    after the events of the lines before it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from _parse(fh)
        except LogFormatError as exc:
            # a line parses the same wherever it stands, so the first line
            # with the failing text is the one that failed
            fh.seek(0)
            number = next(n for n, text in enumerate(fh, 1) if text == exc.line)
            raise LogFormatError(exc.reason, exc.line, f"{path}:{number}: ") from None
