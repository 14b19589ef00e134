import gc
import math
import re
import tracemalloc
from collections.abc import Iterator

import pytest

from immunet import events
from immunet.engine import World
from immunet.events import Event, EventLog, LogFormatError, load_log
from immunet.metrics import compute_metrics

from conftest import worm_config


# Reference copies of the parser and the formatter as they were before the
# log parsed each distinct token once: one token at a time, int then float.
def reference_parse_line(line: str):
    tokens = line.split()
    step = int(tokens[0][5:])
    kind = tokens[1][5:]
    fields = []
    for tok in tokens[2:]:
        key, _, raw = tok.partition("=")
        fields.append((key, reference_parse_value(raw)))
    return step, kind, tuple(fields)


def reference_parse_value(raw: str):
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


def reference_to_line(step, kind, fields) -> str:
    def fmt(value):
        if isinstance(value, float):
            return format(value, ".6g")
        if isinstance(value, bytes):
            return value.hex() or "-"
        if value is None:
            return "-"
        return str(value)
    parts = [f"step={step}", f"kind={kind}"]
    parts.extend(f"{k}={fmt(v)}" for k, v in fields)
    return " ".join(parts)


def typed(fields):
    """Fields with each value's type; repr makes nan comparable to nan."""
    return [(key, type(value), repr(value)) for key, value in fields.items()]


class TestReplay:

    def test_saved_log_replays_the_run(self, tmp_path):
        result = World(worm_config(horizon=200), 6).run()
        path = tmp_path / "run.log"
        result.log.save(path)
        loaded = list(load_log(path))
        assert len(loaded) == len(result.log.events) > 0
        for ran, replayed in zip(result.log.events, loaded):
            assert (replayed.step, replayed.kind) == (ran.step, ran.kind)
            assert typed(replayed.fields) == typed(ran.fields)
        assert compute_metrics(loaded) == compute_metrics(result.log.events)

    def test_repeated_tokens_parse_as_the_reference_does(self, tmp_path):
        raws = ["007", "7", "-3", "1e3", "nan", "00ab", "-", "x=y"]
        tokens = [f"k{i}={raw}" for i, raw in enumerate(raws)]
        lines = [f"step={i} kind=Inject " + " ".join(tokens[i:] + tokens[:i])
                 for i in range(len(tokens))] * 2
        path = tmp_path / "hand.log"
        path.write_text("\n".join(lines) + "\n\n", encoding="utf-8")
        loaded = list(load_log(path))
        assert len(loaded) == len(lines)
        for line, ev in zip(lines, loaded):
            step, kind, fields = reference_parse_line(line)
            assert (ev.step, ev.kind) == (step, kind)
            assert typed(ev.fields) == typed(dict(fields))
        first = list(loaded[0].fields.values())
        assert first[:4] == [7, 7, -3, 1000.0] and type(first[3]) is float
        assert math.isnan(first[4]) and first[5:] == ["00ab", None, "x=y"]

    def test_repeated_key_is_rejected(self, tmp_path):
        line = "step=0 kind=Inject a=1 a=2"
        path = tmp_path / "alone.log"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="repeated field key"):
            list(load_log(path))
        path = tmp_path / "repeated.log"
        path.write_text("step=0 kind=Inject a=1 b=2\n" + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="repeated field key"):
            list(load_log(path))

    def test_unknown_kind_is_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            EventLog().append(0, "Bogus", pid=1)
        path = tmp_path / "bogus.log"
        path.write_text("step=0 kind=Bogus pid=1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            list(load_log(path))


class TestStreaming:
    """`load_log` yields each event as its line is parsed, from a file it
    opens on the first `next()` and closes when the stream ends or closes."""

    LINE = "step={step} kind=Inject pid={pid} node=0 src=0 dst=1 klass=Data attack=-\n"

    def test_load_log_streams(self, tmp_path, monkeypatch):
        opened = []

        def spy(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]
        monkeypatch.setattr(events, "open", spy, raising=False)
        path = tmp_path / "bad.log"
        good = [self.LINE.format(step=0, pid=pid) for pid in range(3)]
        path.write_text("".join(good) + "step=1 kind=Bogus\n" + good[0], encoding="utf-8")
        stream = load_log(path)
        assert isinstance(stream, Iterator) and iter(stream) is stream
        assert opened == []
        assert [next(stream).get("pid") for _ in good] == [0, 1, 2]
        with pytest.raises(LogFormatError, match=re.escape(f"{path}:4: ")):
            next(stream)
        assert opened[0].closed

        path = tmp_path / "good.log"
        path.write_text("".join(good), encoding="utf-8")
        assert [ev.get("pid") for ev in load_log(path)] == [0, 1, 2]
        assert opened[1].closed

        stream = load_log(path)
        assert next(stream).get("pid") == 0 and not opened[2].closed
        stream.close()
        assert opened[2].closed

    def test_parse_tables_stay_bounded(self, tmp_path, monkeypatch):
        """Each line brings a new `pid=` token and every other line a new
        step token, at least 14 times as many of each as a table may hold
        (the limit is lowered to 2**10 to keep the log small): the events
        still equal the reference parse, and the replay's peak holds no
        more than about one full table of each."""
        limit = 1 << 10
        monkeypatch.setattr(events, "_TABLE_LIMIT", limit)
        lines = [self.LINE.format(step=i // 2, pid=i) for i in range(28 * limit)]
        path = tmp_path / "pids.log"
        path.write_text("".join(lines), encoding="utf-8")
        for line, ev in zip(lines, load_log(path), strict=True):
            step, kind, fields = reference_parse_line(line)
            assert (ev.step, ev.kind) == (step, kind)
            assert typed(ev.fields) == typed(dict(fields))

        tracemalloc.start()
        try:
            metrics = compute_metrics(load_log(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert metrics.injected_total == len(lines)
        # about 0.35 MB with the tables bounded; 8 MB when they keep every token
        assert peak < 1.5e6, peak


class TestFormat:

    def test_to_line_matches_the_reference(self):
        fields = (("i", 7), ("neg", -3), ("t", True), ("f", 0.1 + 0.2), ("big", 1e21),
                  ("b", b"\x00\xab"), ("empty", b""), ("none", None), ("s", "Data"))
        assert Event(3, "Inject", dict(fields)).to_line() == reference_to_line(3, "Inject", fields)
        assert Event(0, "Step", {}).to_line() == "step=0 kind=Step"


def line_keys(line: str) -> list[str]:
    return [token.partition("=")[0] for token in line.split()[2:]]


class TestFieldStorage:

    def test_fields_are_untracked_dicts_in_line_order(self, tmp_path):
        """Each event adds one object the cyclic collector tracks, the Event
        itself: its fields dict holds only untracked values, in or out of a
        replay, and keeps the key order of its line."""
        result = World(worm_config(horizon=200), 6).run()
        path = tmp_path / "run.log"
        result.log.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        loaded = list(load_log(path))
        assert len(lines) == len(loaded) == len(result.log.events) > 0
        for line, ran, replayed in zip(lines, result.log.events, loaded):
            for ev in (ran, replayed):
                assert type(ev.fields) is dict and not gc.is_tracked(ev.fields)
                assert list(ev.fields) == line_keys(line)
