import gc
import math
import re
import tracemalloc
from collections.abc import Iterator

import pytest

from immunet import events
from immunet.engine import World
from immunet.events import EventLog, LogFormatError, field, load_log
from immunet.metrics import compute_metrics

from conftest import fields, to_line, worm_config


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


def typed(rec):
    """A record's fields with each value's type; repr makes nan comparable
    to nan."""
    return [(key, type(value), repr(value)) for key, value in fields(rec).items()]


class TestReplay:

    def test_saved_log_replays_the_run(self, tmp_path):
        result = World(worm_config(horizon=200), 6).run()
        path = tmp_path / "run.log"
        result.log.save(path)
        loaded = list(load_log(path))
        assert len(loaded) == len(result.log.events) > 0
        for ran, replayed in zip(result.log.events, loaded):
            assert replayed[:3] == ran[:3]
            assert typed(replayed) == typed(ran)
        assert compute_metrics(loaded) == compute_metrics(result.log.events)

    def test_metrics_read_a_missing_field_as_none(self):
        """A Forward without `klass` is no immune forward, and a Deliver
        without `attack` delivers no attack."""
        log = EventLog()
        log.append(0, "Forward", pid=0, src=0, dst=1)
        log.append(0, "Forward", pid=1, src=0, dst=1, klass="Immune")
        log.append(1, "Deliver", pid=0, node=1, hops=1)
        log.append(1, "Deliver", pid=2, node=1, attack=1)
        metrics = compute_metrics(log.events)
        assert metrics.overhead == 0.5
        assert metrics.delivered_attack == 1

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
            step, kind, pairs = reference_parse_line(line)
            assert ev[:2] == (step, kind)
            assert typed(ev) == [(key, type(value), repr(value)) for key, value in pairs]
        first = list(loaded[0][3:])
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
        assert [field(next(stream), "pid") for _ in good] == [0, 1, 2]
        with pytest.raises(LogFormatError, match=re.escape(f"{path}:4: ")):
            next(stream)
        assert opened[0].closed

        path = tmp_path / "good.log"
        path.write_text("".join(good), encoding="utf-8")
        assert [field(ev, "pid") for ev in load_log(path)] == [0, 1, 2]
        assert opened[1].closed

        stream = load_log(path)
        assert field(next(stream), "pid") == 0 and not opened[2].closed
        stream.close()
        assert opened[2].closed

    def test_parse_tables_stay_bounded(self, tmp_path, monkeypatch):
        """Each line brings a new `pid=` token, 28 times as many as a table
        may hold (the limit is lowered to 2**10 to keep the log small), and
        every other line a new step: the events still equal the reference
        parse, and the replay's peak holds no more than about one full
        token table."""
        limit = 1 << 10
        monkeypatch.setattr(events, "_TABLE_LIMIT", limit)
        lines = [self.LINE.format(step=i // 2, pid=i) for i in range(28 * limit)]
        path = tmp_path / "pids.log"
        path.write_text("".join(lines), encoding="utf-8")
        for line, ev in zip(lines, load_log(path), strict=True):
            step, kind, pairs = reference_parse_line(line)
            assert ev[:2] == (step, kind)
            assert typed(ev) == [(key, type(value), repr(value)) for key, value in pairs]

        tracemalloc.start()
        try:
            metrics = compute_metrics(load_log(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert metrics.injected_total == len(lines)
        # about 0.35 MB with the tables bounded; 8 MB when they keep every token
        assert peak < 1.5e6, peak

    def test_key_sequence_table_stays_bounded(self, tmp_path, monkeypatch):
        """Each line brings a new key sequence, 28 times as many as a table
        may hold, and three new tokens, so the token table is also cleared
        partway through lines: the events still equal the reference parse,
        and the replay's peak holds no more than about one full table of
        sequences and of tokens."""
        limit = 1 << 10
        monkeypatch.setattr(events, "_TABLE_LIMIT", limit)
        lines = [f"step={i // 2} kind=Inject pid={i} k{i}=1 k{i + 1}=2\n" for i in range(28 * limit)]
        path = tmp_path / "keys.log"
        path.write_text("".join(lines), encoding="utf-8")
        for line, ev in zip(lines, load_log(path), strict=True):
            step, kind, pairs = reference_parse_line(line)
            assert ev[:2] == (step, kind)
            assert typed(ev) == [(key, type(value), repr(value)) for key, value in pairs]

        tracemalloc.start()
        try:
            metrics = compute_metrics(load_log(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert metrics.injected_total == len(lines)
        # about 1.1 MB with the tables bounded; 15 MB when they keep every sequence
        assert peak < 3e6, peak


class TestFormat:

    def test_to_text_matches_the_reference(self):
        pairs = (("i", 7), ("neg", -3), ("t", True), ("f", 0.1 + 0.2), ("big", 1e21),
                 ("b", b"\x00\xab"), ("empty", b""), ("none", None), ("s", "Data"))
        log = EventLog()
        assert log.to_text() == ""
        log.append(3, "Inject", **dict(pairs))
        log.append(0, "Step")
        assert log.to_text() == reference_to_line(3, "Inject", pairs) + "\nstep=0 kind=Step\n"
        assert [to_line(rec) for rec in log.events] == log.to_text().splitlines()


class TestWriter:
    """`EventLog.writer` checks its kind and keys before any event is
    written, and its records are those `append` builds."""

    PAIRS = (("pid", 7), ("node", 0), ("f", 0.5), ("b", b"\x00\xab"), ("attack", None),
             ("klass", "Data"))

    def test_unknown_kind_is_rejected(self):
        log = EventLog()
        with pytest.raises(ValueError, match="unknown event kind"):
            log.writer("Bogus")
        assert len(log) == 0

    def test_repeated_key_is_rejected(self):
        # load_log refuses such a line, so a log holding one could not be replayed
        log = EventLog()
        with pytest.raises(ValueError, match="repeated field key"):
            log.writer("Inject", "pid", "pid")
        assert len(log) == 0

    @pytest.mark.parametrize("kind, pairs", [("Inject", PAIRS), ("Step", ())])
    def test_record_is_the_one_append_builds(self, kind, pairs):
        log = EventLog()
        log.append(3, kind, **dict(pairs))
        log.writer(kind, *(key for key, _ in pairs))(3, *(value for _, value in pairs))
        appended, written = log.events
        assert written == appended and written[2] is appended[2]
        assert log.to_text() == 2 * (reference_to_line(3, kind, pairs) + "\n")

    @pytest.mark.parametrize("writer_first", [True, False])
    def test_writer_and_append_share_equal_keys(self, writer_first):
        log = EventLog()
        if writer_first:
            write = log.writer("Deliver", "pid", "node")
        log.append(1, "Drop", pid=2, node=3)
        if not writer_first:
            write = log.writer("Deliver", "pid", "node")
        write(2, 3, 4)
        appended, written = log.events
        assert written[2] == ("pid", "node") and written[2] is appended[2]


def line_keys(line: str) -> tuple[str, ...]:
    return tuple(token.partition("=")[0] for token in line.split()[2:])


class TestRecords:
    """Kept and replayed events are the flat tuple `(step, kind, keys,
    *values)`, which the cyclic garbage collector untracks."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        result = World(worm_config(horizon=200), 6).run()
        path = tmp_path_factory.mktemp("records") / "run.log"
        result.log.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(result.log) > 0
        return result.log.events, list(load_log(path)), lines

    def test_records_are_flat_tuples_in_line_order(self, run):
        kept, replayed, lines = run
        assert len(replayed) == len(lines)
        for line, *recs in zip(lines, kept, replayed):
            step, kind = line.split()[:2]
            for rec in recs:
                assert type(rec) is tuple and type(rec[2]) is tuple
                assert f"step={rec[0]}" == step and f"kind={rec[1]}" == kind
                assert rec[2] == line_keys(line) and len(rec) == 3 + len(rec[2])
                assert to_line(rec) == line

    def test_records_are_untracked_after_a_collection(self, run):
        kept, replayed, _ = run
        gc.collect()
        assert not any(map(gc.is_tracked, kept))
        assert not any(map(gc.is_tracked, replayed))

    def test_records_with_one_key_sequence_share_its_tuple(self, run):
        kept, replayed, _ = run
        for recs in (kept, replayed):
            shared = {}
            for rec in recs:
                assert shared.setdefault(rec[2], rec[2]) is rec[2]
            assert 10 < len(shared) < 40

    def test_bytes_per_kept_record(self):
        """What the kept log holds per event: its record tuple, its slot in
        the list and the values only it refers to; measured at 122 bytes.
        A full collection also empties the tuple free lists, which would
        otherwise keep freed records counted."""
        tracemalloc.start()
        try:
            log = World(worm_config(horizon=200), 6).run().log
            count = len(log)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            log.events.clear()
            gc.collect()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert count > 10_000
        assert freed / count < 140, freed / count
