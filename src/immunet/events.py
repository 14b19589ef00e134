"""Append-only event log with a stable line format.

Every observable fact about a run (injections, forwards, detections,
infections, ...) is an event line; metrics and audits are computed from
the log alone so every run is replayable from its persisted log.

An event is kept as one flat tuple, `(step, kind, keys, *values)`: `keys`
is the tuple of its field names in line order, shared by every event with
that key sequence, and the values follow in the same order, so field `k`
is `rec[3 + keys.index(k)]`. Field values are ints, bools, floats,
strings, bytes or None. The cyclic garbage collector stops tracking a
tuple that holds only such values and untracked tuples at the first
collection that sees it, so kept events cost later collections nothing,
and each event is one allocation.

A call site that always logs the same keys takes a writer once, with
`EventLog.writer(kind, *keys)`, and logs each event with
`write(step, *values)`. `EventLog.append(step, kind, **fields)` serves the
sites whose keys vary per call, tests and `perfbench/tracer.py`; both
build the same record with the same shared `keys`.
"""

from __future__ import annotations

import sys
from typing import Callable, Iterator

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


def field(rec: tuple, key: str):
    """Field `key` of an event record, or None when it has no such field."""
    try:
        return rec[3 + rec[2].index(key)]
    except ValueError:
        return None


class EventLog:
    """Ordered events of one run, each kept in `events` as the flat tuple
    `(step, kind, keys, *values)`. The log owns one `keys` tuple per key
    sequence logged, so the events of one call site share it, and a kept
    event is a tuple the cyclic garbage collector untracks.

    Fixed-key sites log through a `writer`, which checks the kind and the
    keys once. `append` checks the kind and looks up the keys per call; it
    serves sites whose keys vary, tests and `perfbench/tracer.py`."""

    def __init__(self):
        self.events: list[tuple] = []
        self._keys: dict[tuple[str, ...], tuple[str, ...]] = {}

    def append(self, step: int, kind: str, **fields) -> None:
        if kind not in _KIND_SET:
            raise ValueError(f"unknown event kind: {kind}")
        keys = tuple(fields)  # the call's keyword order
        self.events.append((step, kind, self._keys.setdefault(keys, keys), *fields.values()))

    def writer(self, kind: str, *keys: str) -> Callable[..., None]:
        """`write(step, *values)`, which logs a `kind` event whose fields are
        `keys` in order and `values` in the same order. Raises ValueError
        for an unknown kind or a repeated key, which no log may hold."""
        if kind not in _KIND_SET:
            raise ValueError(f"unknown event kind: {kind}")
        if len(set(keys)) < len(keys):
            raise ValueError(f"repeated field key in {keys}")
        keys = self._keys.setdefault(keys, keys)
        put = self.events.append

        def write(step: int, *values) -> None:
            put((step, kind, keys) + values)
        return write

    def __len__(self):
        return len(self.events)

    def to_text(self) -> str:
        lines = []
        put = lines.append
        for rec in self.events:
            line = f"step={rec[0]} kind={rec[1]}"
            i = 3
            for key in rec[2]:
                value = rec[i]
                i += 1
                if value is None:
                    line += f" {key}=-"
                elif type(value) is float:
                    line += f" {key}={value:.6g}"
                elif type(value) is bytes:
                    line += f" {key}={value.hex() or '-'}"
                else:
                    line += f" {key}={value}"
            put(line)
        if lines:
            put("")  # the text ends with a newline
        return "\n".join(lines)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())


class LogFormatError(ValueError):
    """A log line that is not `step=<int> kind=<enum> key=value ...`;
    `load_log` prefixes the message with the file and the line's number."""

    def __init__(self, reason: str, line: str, where: str = ""):
        super().__init__(f"{where}{reason}: {line.strip()!r}")


# A parse table holds at most this many entries: it is cleared when full, so
# a streamed replay of any horizon holds bounded tables (a log adds a `pid=`
# token per packet). The seed-42 benchmark logs have at most 45,320 tokens.
_TABLE_LIMIT = 1 << 16


class _ValueTable(dict):
    """Raw `key=value` token -> its parsed value. `_KeyTable` fills it as it
    parses a token; a token it misses was dropped when the tables were
    cleared partway through its line, and is parsed again."""

    def __missing__(self, token: str):
        value = self[token] = _parse_value(token.partition("=")[2])
        return value


class _KeyTable(dict):
    """Raw `key=value` token -> its key, each distinct token parsed on first
    sight, its value going into `values`. A log repeats few distinct tokens
    many times. Keys are interned, so equal key sequences hold the same
    strings."""

    def __init__(self):
        super().__init__()
        self.values = _ValueTable()

    def __missing__(self, token: str) -> str:
        key, eq, raw = token.partition("=")
        if not eq:
            raise ValueError(f"field token without '=': {token!r}")
        if len(self) >= _TABLE_LIMIT:
            self.clear()
            self.values.clear()
        self.values[token] = _parse_value(raw)
        key = self[token] = sys.intern(key)
        return key


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


def load_log(path) -> Iterator[tuple]:
    """Stream a saved log: a generator that opens the file on its first
    `next()`, yields each event as its line is parsed, as the same flat
    tuple `EventLog` keeps, and closes the file when the stream ends, fails
    or is closed. Blank lines are skipped. It holds one event at a time;
    `list(load_log(path))` holds them all. Errors surface while the stream
    is consumed, not at the call: `OSError` for a file that cannot be
    opened, `UnicodeDecodeError` for text that is not UTF-8, and
    `LogFormatError` naming the file and the line's number for a bad line,
    after the events of the lines before it.

    Each distinct token is parsed once, and each distinct key sequence is
    checked for a repeated key once and shared by the events that have it;
    the token and key-sequence tables are cleared when full."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = _KeyTable()
        key_of, value_of = tokens.__getitem__, tokens.values.__getitem__
        shared: dict[tuple[str, ...], tuple[str, ...]] = {}  # key sequence -> its one copy
        last: dict[str, tuple[str, ...]] = {}  # kind -> its latest key sequence
        step_token, step = None, 0
        for line in fh:
            words = line.split()
            try:
                kind = _KIND_TOKENS[words[1]]
                fields = words[2:]
                keys = tuple(map(key_of, fields))
                latest = last.get(kind)
                if keys == latest:
                    keys = latest
                else:
                    seen = shared.get(keys)
                    if seen is None:
                        if len(set(keys)) < len(keys):
                            raise ValueError("repeated field key in line")
                        if len(shared) >= _TABLE_LIMIT:
                            shared.clear()
                        seen = shared[keys] = keys
                    keys = last[kind] = seen
                if words[0] != step_token:
                    if not words[0].startswith("step="):
                        raise ValueError(f"malformed step token: {words[0]!r}")
                    step, step_token = int(words[0][5:]), words[0]
            except LookupError:
                if not words:
                    continue
                reason = "malformed line or unknown event kind"
            except ValueError as exc:
                reason = str(exc)
            else:
                yield (step, kind, keys, *map(value_of, fields))
                continue
            # a line parses the same wherever it stands, so the first line
            # with the failing text is the one that failed
            fh.seek(0)
            number = next(n for n, text in enumerate(fh, 1) if text == line)
            raise LogFormatError(reason, line, f"{path}:{number}: ")
