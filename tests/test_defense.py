import random

import pytest

from immunet.cells import DetectorCell
from immunet.defense import (CLEAN, MALICIOUS, DefenseStack, DetectorComponent,
                             DuplicateRegistration, FilterRule, PacketFilter,
                             StaticIDS, UnknownComponent, filter_check)
from immunet.signatures import CompressedSignatureDb, contains_signature
from immunet.topology import UnknownNode, line_network
from immunet.transport import DATA, IMMUNE, Packet

SIG = bytes.fromhex("a3f1c08e55d2764b9900eeab1275c3d4")


def packet(pid=0, src=0, dst=2, klass=DATA, payload=b"", attack=None):
    return Packet(pid, src, dst, klass, payload, attack)


def detector_component(component_id=10_000, signatures=(SIG,), fpr=0.01):
    cell = DetectorCell(cell_id=component_id - 10_000, kind="Detector", location=0,
                        receptor=None, rng=random.Random(0), born_at=0,
                        db=CompressedSignatureDb(signatures, fpr))
    return DetectorComponent(component_id, cell)


class TestFilters:

    def test_empty_rules_accept(self):
        assert filter_check([], packet()) == "Accept"

    def test_drop_by_dst(self):
        rules = [FilterRule(action="Drop", dst=frozenset({3}))]
        assert filter_check(rules, packet(dst=3)) == "Drop"
        assert filter_check(rules, packet(dst=4)) == "Accept"

    def test_first_match_wins(self):
        rules = [FilterRule(action="Accept", src=frozenset({9})),
                 FilterRule(action="Drop", src=frozenset({9}))]
        assert filter_check(rules, packet(src=9)) == "Accept"

    def test_never_inspects_payload(self):
        rules = [FilterRule(action="Drop", src=frozenset({1}))]
        assert filter_check(rules, packet(src=0, payload=SIG)) == "Accept"

    def test_oracle_agreement_1000_random(self):
        """First-match-wins over random rule tables vs a naive re-scan."""
        rng = random.Random(42)

        def naive(rules, pkt):
            for rule in rules:
                src_ok = rule.src is None or pkt.src in rule.src
                dst_ok = rule.dst is None or pkt.dst in rule.dst
                class_ok = rule.klass is None or pkt.klass == rule.klass
                if src_ok and dst_ok and class_ok:
                    return rule.action
            return "Accept"

        def random_set():
            if rng.random() < 0.4:
                return None
            return frozenset(rng.sample(range(6), rng.randint(1, 3)))

        rules = [FilterRule(action=rng.choice(("Drop", "Accept")),
                            src=random_set(), dst=random_set(),
                            klass=rng.choice((None, DATA, IMMUNE)))
                 for _ in range(10)]
        for _ in range(1000):
            pkt = packet(src=rng.randrange(6), dst=rng.randrange(6),
                         klass=rng.choice((DATA, IMMUNE)))
            assert filter_check(rules, pkt) == naive(rules, pkt)


class TestIds:

    def test_worm_payload_malicious(self):
        ids = StaticIDS(1, [SIG])
        assert ids.check(packet(payload=b"xx" + SIG + b"yy")) == MALICIOUS

    def test_benign_clean(self, rng):
        ids = StaticIDS(1, [SIG])
        assert ids.check(packet(payload=rng.randbytes(64))) == CLEAN

    def test_immune_class_skipped(self):
        ids = StaticIDS(1, [SIG])
        assert ids.check(packet(klass=IMMUNE, payload=SIG)) == CLEAN

    def test_agreement_with_detector_on_corpus(self):
        """The static matcher is the exact oracle the compressed store
        approximates: identical recall, near-identical verdicts on 10^4."""
        rng = random.Random(17)
        ids = StaticIDS(1, [SIG])
        det = detector_component()
        disagreements = 0
        for i in range(10_000):
            if i % 2:
                off = rng.randrange(64 - 16 + 1)
                pad = rng.randbytes(48)
                payload = pad[:off] + SIG + pad[off:]
            else:
                payload = rng.randbytes(64)
                if contains_signature([SIG], payload):
                    continue
            pkt = packet(pid=i, payload=payload)
            ids_verdict = ids.check(pkt)
            det_verdict = det.check(pkt)
            if contains_signature([SIG], payload):
                assert ids_verdict == MALICIOUS
                assert det_verdict == MALICIOUS  # no false negatives
            elif ids_verdict != det_verdict:
                disagreements += 1  # detector false positive
        assert disagreements / 10_000 <= 0.02


class TestRegistry:

    def test_register_and_list(self):
        stack = DefenseStack(line_network(3))
        comp = detector_component()
        stack.register(1, comp)
        assert stack.at[1] == [comp]
        assert stack._home[comp.component_id] == 1

    def test_register_unknown_node(self):
        stack = DefenseStack(line_network(3))
        with pytest.raises(UnknownNode):
            stack.register(9, detector_component())

    def test_duplicate_registration(self):
        stack = DefenseStack(line_network(3))
        comp = detector_component()
        stack.register(1, comp)
        with pytest.raises(DuplicateRegistration):
            stack.register(2, comp)

    def test_deregister_unknown_id(self):
        stack = DefenseStack(line_network(3))
        with pytest.raises(UnknownComponent):
            stack.deregister(1, 555)

    def test_move_between_nodes(self):
        stack = DefenseStack(line_network(3))
        comp = detector_component()
        stack.register(0, comp)
        stack.deregister(0, comp.component_id)
        stack.register(1, comp)
        assert stack.at[0] == []
        assert stack.at[1] == [comp]


class TestCheckAll:

    def test_no_components_pass(self):
        stack = DefenseStack(line_network(3))
        assert stack.check_all(1, packet(payload=SIG)) is None

    def test_filter_destroys_by_src(self):
        stack = DefenseStack(line_network(3))
        stack.register(1, PacketFilter(0, [FilterRule(action="Drop", src=frozenset({9}))]))
        by = stack.check_all(1, packet(src=9))
        assert by is not None and by.kind == "PacketFilter"

    def test_detector_destroys_worm(self):
        stack = DefenseStack(line_network(3))
        stack.register(1, detector_component())
        by = stack.check_all(1, packet(payload=b"ab" + SIG, attack=1))
        assert by is not None and by.kind == "Cell"
        assert by.cell_id == 0

    def test_ascending_id_short_circuit(self):
        stack = DefenseStack(line_network(3))
        stack.register(1, detector_component(component_id=10_005))
        stack.register(1, PacketFilter(0, [FilterRule(action="Drop")]))
        by = stack.check_all(1, packet(payload=SIG))
        assert by.component_id == 0  # the filter (lower id) fires first

    def test_clean_packet_passes_everything(self, rng):
        stack = DefenseStack(line_network(3))
        stack.register(1, PacketFilter(0, [FilterRule(action="Drop", src=frozenset({9}))]))
        stack.register(1, StaticIDS(1, [SIG]))
        stack.register(1, detector_component())
        payload = rng.randbytes(64)
        while contains_signature([SIG], payload):
            payload = rng.randbytes(64)
        assert stack.check_all(1, packet(payload=payload)) is None
