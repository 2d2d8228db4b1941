"""otplab's records: what each one promises without `dataclasses`.

Every record is immutable, and the few methods callers rely on are stated
here: a Bell label hashes, compares and sorts by its code, within its own
class; an xor-chain run is equal to another exactly when their messages
are; a cipher block's repr leaves out the pad.
"""

import inspect
import itertools
import random

import pytest

from otplab import cli, cryptanalysis, otp, protocols, quantum
from otplab.cli import SCENARIOS, ScenarioConfig
from otplab.cryptanalysis import CARRIERS, Analysis, attack_xor_chain
from otplab.infotheory import Distribution
from otplab.otp import TRULY_RANDOM, KeyMaterial, encrypt, shannon_audit
from otplab.protocols import Channel, Transcript, XorChainRun, run_es_qkd, run_xor_chain
from otplab.quantum import BELL_LABELS, PHI_PLUS, PSI_MINUS, PSI_PLUS, BellLabel
from otplab.records import Record


def one_of_each() -> dict:
    """One instance of every record, by class name."""
    analysis = attack_xor_chain(Distribution.uniform_bits(2))
    records = [
        BellLabel(1, 0),
        TRULY_RANDOM,
        encrypt("10", KeyMaterial("11", TRULY_RANDOM)),
        shannon_audit(KeyMaterial("11", TRULY_RANDOM), 2),
        Transcript(("alice",), (Channel.PUBLIC_BROADCAST,), ("1",)),
        run_xor_chain("0110"),
        run_es_qkd([(PHI_PLUS, PSI_PLUS)], random.Random(1)),
        CARRIERS["es-qkd"],
        analysis.resources,
        analysis,
        analysis.efficiency,
        ScenarioConfig("xor-chain", seed=3, trials=1, fmt="json"),
        SCENARIOS["xor-chain"],
        cli.COMMANDS["simulate"][1][0],
    ]
    return {type(record).__name__: record for record in records}


def field_names(record) -> tuple:
    return record._fields if isinstance(record, tuple) else type(record).__slots__


def test_every_record_is_covered():
    # A Record subclass or a named tuple defined in an otplab module.
    defined = {
        name for module in (cli, cryptanalysis, otp, protocols, quantum)
        for name, value in vars(module).items()
        if inspect.isclass(value) and value.__module__ == module.__name__
        and (issubclass(value, Record) or issubclass(value, tuple) and hasattr(value, "_fields"))
    }
    assert defined == set(one_of_each()) and len(defined) == 14


@pytest.mark.parametrize("name", sorted(one_of_each()))
def test_each_record_refuses_assignment_and_deletion(name):
    record = one_of_each()[name]
    before = [getattr(record, field) for field in field_names(record)]
    for field in field_names(record):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert [getattr(record, field) for field in field_names(record)] == before
    assert not hasattr(record, "__dict__")


class TestBellLabel:
    def test_hashes_by_code(self):
        assert [hash(label) for label in BELL_LABELS] == [0, 1, 2, 3]
        assert hash(BellLabel(1, 1)) == PSI_MINUS.code

    def test_is_equal_only_within_its_own_class(self):
        class Relabelled(BellLabel):
            pass

        fresh = BellLabel(1, 0)
        assert fresh == PSI_PLUS and not fresh != PSI_PLUS
        assert Relabelled(1, 0) == Relabelled(1, 0)
        assert Relabelled(1, 0) != PSI_PLUS and PSI_PLUS != Relabelled(1, 0)
        assert PSI_PLUS != (1, 0) and PSI_PLUS != 2 and PSI_PLUS != "10"
        with pytest.raises(TypeError):
            Relabelled(0, 0) < PSI_PLUS

    def test_orders_by_bitflip_then_phase(self):
        for a, b in itertools.product(BELL_LABELS, BELL_LABELS):
            key_a, key_b = (a.bitflip, a.phase), (b.bitflip, b.phase)
            assert (a < b, a <= b, a > b, a >= b) == (
                key_a < key_b, key_a <= key_b, key_a > key_b, key_a >= key_b)

    def test_sorts_tuples_of_labels_in_label_pair_order(self):
        pairs = list(itertools.product(BELL_LABELS, BELL_LABELS))
        shuffled = pairs[::-1]
        random.Random(5).shuffle(shuffled)
        assert sorted(shuffled) == pairs
        assert sorted(shuffled) == sorted(
            shuffled, key=lambda pair: [(label.bitflip, label.phase) for label in pair])


class TestXorChainRun:
    def test_is_equal_by_its_message_only(self):
        run = XorChainRun("0110")
        assert run == run_xor_chain("0110") and hash(run) == hash(run_xor_chain("0110"))
        assert run is not XorChainRun("0110") and run == XorChainRun("0110")
        assert run != XorChainRun("0111") and run != XorChainRun("011000")
        assert run != "0110"


class TestCipherBlock:
    def test_repr_leaves_out_the_pad(self):
        block = encrypt("10", KeyMaterial("11", TRULY_RANDOM))
        assert repr(block) == "CipherBlock(ciphertext='01', key_offset=0)"
        assert "pad" not in repr(block) and "KeyMaterial" not in repr(block)


class TestRecord:
    def test_records_of_equal_fields_are_equal_within_one_class(self):
        a = Analysis("xor-chain", 1, None, 1.0)
        assert a == Analysis("xor-chain", 1, None, 1.0)
        assert hash(a) == hash(Analysis("xor-chain", 1, None, 1.0))
        assert a != Analysis("xor-chain", 1, None, 0.5)

        class Other(Analysis):
            pass

        assert a != Other("xor-chain", 1, None, 1.0)
