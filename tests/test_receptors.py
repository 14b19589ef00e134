import pytest

from immunet.receptors import seal, try_open
from immunet.stations import ADMIN, LYMPH, NURSERY

KINDS = (LYMPH, NURSERY, ADMIN)


class TestSubstances:

    @pytest.mark.parametrize("receptor", KINDS)
    def test_opens_for_its_kind_only(self, receptor):
        sub = seal(b"hello stations", receptor, hop_ttl=4)
        for kind in KINDS:
            assert try_open(sub, kind) == (b"hello stations" if kind == receptor else None)

    def test_unknown_receptor_opens_for_no_kind(self):
        sub = seal(b"secret", "stranger", hop_ttl=4)
        assert all(try_open(sub, kind) is None for kind in KINDS)

    def test_round_trip_fuzz_1000(self, rng):
        for _ in range(1000):
            payload = rng.randbytes(rng.randrange(0, 200))
            receptor = rng.choice(KINDS)
            sub = seal(payload, receptor, hop_ttl=3)
            assert try_open(sub, receptor) == payload
