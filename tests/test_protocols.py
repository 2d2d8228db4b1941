import dataclasses
import functools
import itertools
import random
from dataclasses import dataclass, field

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otplab import protocols
from otplab.bits import check_bits, random_bits, xor_bits
from otplab.cli import SCENARIOS
from otplab.cryptanalysis import attack_es_qkd_keyset, leakage_report
from otplab.otp import KeyMaterial, TRULY_RANDOM, derived_correlated, random_key
from otplab.protocols import (
    XOR_CHAIN_RECEIVERS,
    XOR_CHAIN_SENDER,
    Channel,
    ConditionViolationError,
    EsQkdRun,
    Transcript,
    XorChainRun,
    deduce_partner_result,
    eve_view,
    run_es_qkd,
    run_otp_baseline,
    run_xor_chain,
)
from otplab.quantum import (
    BELL_LABELS,
    PHI_PLUS,
    PSI_PLUS,
    swap_distribution_oracle,
    swap_distribution_rule,
)

ALL_PAIRS = list(itertools.product(BELL_LABELS, BELL_LABELS))


@dataclass(frozen=True)
class Event:
    """One channel event, as the reference transcripts below record it."""

    sender: str
    channel: Channel
    payload: str


def events_of(transcript: Transcript) -> tuple:
    """A columnar transcript read back as its events, in order."""
    return tuple(map(Event, transcript.senders, transcript.channels, transcript.payloads))


def public_events_of(transcript: Transcript) -> tuple:
    return tuple(e for e in events_of(transcript) if e.channel is Channel.PUBLIC_BROADCAST)


def payloads_on(transcript: Transcript, channel: Channel) -> list:
    """The payloads sent on one channel, one per event, in order."""
    return [e.payload for e in events_of(transcript) if e.channel is channel]


class TestTranscript:
    def test_rejects_non_bit_payload(self):
        with pytest.raises(ValueError):
            Transcript(("alice",), (Channel.PUBLIC_BROADCAST,), ("2",))

    def test_line_serialization(self):
        t = Transcript(
            ("alice", "alice"), (Channel.SECURE_PRIMITIVE, Channel.PUBLIC_BROADCAST), ("1", "0")
        )
        assert t.to_records() == [
            {"sender": "alice", "channel": "secure-primitive", "payload": "1"},
            {"sender": "alice", "channel": "public-broadcast", "payload": "0"},
        ]

    @pytest.mark.parametrize("lengths", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 2, 1), (1, 2, 2)])
    def test_unequal_column_lengths_raise(self, lengths):
        senders, channels, payloads = (
            ["alice"] * lengths[0], [Channel.PUBLIC_BROADCAST] * lengths[1], ["1"] * lengths[2]
        )
        with pytest.raises(ValueError):
            Transcript(senders, channels, payloads)

    @pytest.mark.parametrize("bad", ["2", "0x", " ", 1, None, b"01", ["0"]],
                             ids=["digit", "letter", "space", "int", "none", "bytes", "list"])
    @pytest.mark.parametrize("position", [0, 1, 3])
    def test_bad_payload_raises_at_any_position(self, bad, position):
        payloads = ["0", "", "11", "1"]
        payloads[position] = bad
        with pytest.raises(ValueError):
            Transcript(["alice"] * 4, [Channel.PUBLIC_BROADCAST] * 4, payloads)
        with pytest.raises(ValueError):
            ListTranscript().append("alice", Channel.PUBLIC_BROADCAST, bad)

    def test_a_transcript_is_only_its_columns(self):
        assert [f.name for f in dataclasses.fields(Transcript)] == [
            "senders", "channels", "payloads"
        ]
        assert not hasattr(protocols, "Event")
        assert not hasattr(Transcript(), "events") and not hasattr(Transcript, "public_events")

    @pytest.mark.parametrize("channel", ["public-broadcast", None, 1],
                             ids=["value-string", "none", "int"])
    def test_non_channel_member_raises(self, channel):
        # A channel that is not a member would hide a public payload from Eve.
        with pytest.raises(ValueError, match="is not a Channel member"):
            Transcript(("alice", "alice"), (Channel.PUBLIC_BROADCAST, channel), ("1", "0"))

    def test_columns_are_stored_as_tuples(self):
        senders, channels, payloads = ["alice"], [Channel.PUBLIC_BROADCAST], ["1"]
        t = Transcript(senders, channels, payloads)
        payloads[0] = "0"
        assert (t.senders, t.channels, t.payloads) == (
            ("alice",), (Channel.PUBLIC_BROADCAST,), ("1",)
        )


class TestFrozenRun:
    """A finished run cannot be changed through its transcript, outputs or results."""

    def test_events_cannot_be_appended(self):
        run = run_xor_chain("10")
        for column in ("senders", "channels", "payloads"):
            with pytest.raises(AttributeError):
                getattr(run.transcript, column).append("x2")
            with pytest.raises(AttributeError):
                setattr(run.transcript, column, [])
        assert eve_view(run.transcript) == "1"
        assert len(events_of(run.transcript)) == 2

    def test_transcript_columns_are_tuples(self):
        key = KeyMaterial("11", TRULY_RANDOM)
        for transcript in (run_xor_chain("0110").transcript, run_otp_baseline("10", key)):
            for column in (transcript.senders, transcript.channels, transcript.payloads):
                assert type(column) is tuple

    def test_receiver_outputs_are_read_only(self):
        run = run_xor_chain("10")
        with pytest.raises(TypeError):
            run.receiver_outputs["bob"] = "00"
        assert run.receiver_outputs == {"bob": "10", "charlie": "10"}

    def test_receiver_outputs_do_not_follow_the_callers_dict(self):
        outputs = {"bob": "10"}
        run = XorChainRun("10", run_xor_chain("10").transcript, outputs, ghz_states_consumed=1)
        outputs["bob"] = "00"
        assert run.receiver_outputs == {"bob": "10"}

    @pytest.mark.parametrize("name", ["initial_pairs", "alice_results", "bob_results"])
    def test_es_qkd_results_cannot_be_appended_or_assigned(self, name):
        run = run_es_qkd([(PHI_PLUS, PSI_PLUS)], random.Random(1))
        column = getattr(run, name)
        with pytest.raises(AttributeError):
            column.append(column[0])
        with pytest.raises(AttributeError):
            setattr(run, name, [])
        # An appended pair used to make the report claim 8 bits for this 4-bit key.
        report = leakage_report(run, attack_es_qkd_keyset(run.initial_pairs))
        assert report.claimed_bits == len(run.key) == 4

    def test_es_qkd_key_and_particle_count_are_read_only(self):
        run = run_es_qkd([(PHI_PLUS, PSI_PLUS)], random.Random(1))
        key = run.key
        with pytest.raises(AttributeError):
            run.key = "0000"
        with pytest.raises(AttributeError):
            run.particles_consumed = 8
        assert (run.key, run.particles_consumed) == (key, 4)

    def test_es_qkd_run_stores_three_tuples(self):
        pairs, alice, bob = [(PHI_PLUS, PSI_PLUS)], [PSI_PLUS], [PHI_PLUS]
        run = EsQkdRun(pairs, alice, bob)
        names = [f.name for f in dataclasses.fields(EsQkdRun)]
        assert names == ["initial_pairs", "alice_results", "bob_results"]
        assert all(type(getattr(run, name)) is tuple for name in names)
        pairs.append((PHI_PLUS, PHI_PLUS))
        alice.append(PHI_PLUS)
        bob.append(PHI_PLUS)
        assert (run.key, run.particles_consumed) == ("1000", 4)

    def test_runs_of_one_message_compare_equal(self):
        assert run_xor_chain("0110") == run_xor_chain("0110")
        assert run_xor_chain("0110").transcript != run_xor_chain("0111").transcript


class TestEveView:
    def test_secure_only_transcript_is_invisible(self):
        t = Transcript(("alice",), (Channel.SECURE_PRIMITIVE,), ("101",))
        assert eve_view(t) == ""

    def test_xor_chain_view(self):
        run = run_xor_chain("11")
        assert eve_view(run.transcript) == "0"

    def test_otp_view_is_the_ciphertext(self):
        key = KeyMaterial("11", TRULY_RANDOM)
        transcript = run_otp_baseline("10", key)
        assert eve_view(transcript) == "01"


class TestXorChain:
    def test_message_11(self):
        run = run_xor_chain("11")
        assert payloads_on(run.transcript, Channel.SECURE_PRIMITIVE) == ["1"]
        assert eve_view(run.transcript) == "0"
        assert run.receiver_outputs == {"bob": "11", "charlie": "11"}

    def test_message_10(self):
        run = run_xor_chain("10")
        assert eve_view(run.transcript) == "1"
        assert run.receiver_outputs["bob"] == "10"

    def test_message_10110100(self):
        run = run_xor_chain("10110100")
        secure = payloads_on(run.transcript, Channel.SECURE_PRIMITIVE)
        assert secure == ["1", "1", "0", "0"]
        assert eve_view(run.transcript) == "1010"
        assert run.receiver_outputs["charlie"] == "10110100"
        assert run.ghz_states_consumed == 4

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            run_xor_chain("101")
        with pytest.raises(ValueError):
            run_xor_chain("")

    def test_run_record_rejects_odd_length(self):
        # The leakage accounting claims 2 bits per carrier, so a 3-bit
        # message on one carrier must not be a valid run.
        with pytest.raises(ValueError):
            XorChainRun("101", Transcript(), {}, ghz_states_consumed=1)

    @pytest.mark.parametrize("transcript", [Transcript(), run_xor_chain("11").transcript],
                             ids=["empty", "another-message"])
    def test_run_record_rejects_a_transcript_of_another_message(self, transcript):
        # Eve's view of the run must be the message's: "11" broadcasts "0", "10" "1".
        with pytest.raises(ValueError, match="decodes to"):
            XorChainRun("10", transcript, {"bob": "10"}, ghz_states_consumed=1)

    def test_run_record_needs_a_receiver(self):
        with pytest.raises(ValueError, match="at least one receiver"):
            XorChainRun("10", run_xor_chain("10").transcript, {}, ghz_states_consumed=1)

    @pytest.mark.parametrize("n_bits", [2, 4, 10, 16])
    def test_resource_counts(self, n_bits):
        run = run_xor_chain(random_bits(n_bits, random.Random(n_bits)))
        public = public_events_of(run.transcript)
        secure = payloads_on(run.transcript, Channel.SECURE_PRIMITIVE)
        assert len(public) == n_bits // 2
        assert len(secure) == n_bits // 2
        assert run.ghz_states_consumed == n_bits // 2

    def test_all_receivers_decode_exactly(self):
        rng = random.Random(31)
        for _ in range(20):
            message = random_bits(12, rng)
            run = run_xor_chain(message)
            assert all(out == message for out in run.receiver_outputs.values())

    def test_transcript_interleaves_secure_then_broadcast(self):
        run = run_xor_chain("0110")
        channels = [e.channel for e in events_of(run.transcript)]
        assert channels == [
            Channel.SECURE_PRIMITIVE,
            Channel.PUBLIC_BROADCAST,
            Channel.SECURE_PRIMITIVE,
            Channel.PUBLIC_BROADCAST,
        ]


@dataclass
class ListTranscript:
    """The list-of-events transcript the columnar one replaced."""

    events: list = field(default_factory=list)
    _frozen: bool = field(default=False, repr=False)

    def append(self, sender, channel, payload):
        if self._frozen:
            raise RuntimeError("transcript is frozen")
        self.events.append(Event(sender, channel, check_bits(payload, "payload")))

    def freeze(self):
        self._frozen = True
        return self

    def public_events(self):
        return tuple(e for e in self.events if e.channel is Channel.PUBLIC_BROADCAST)

    def to_records(self):
        return [
            {"sender": e.sender, "channel": e.channel.value, "payload": e.payload}
            for e in self.events
        ]


def list_eve_view(transcript: ListTranscript) -> str:
    return "".join(e.payload for e in transcript.public_events())


def string_run_xor_chain(message: str):
    """The per-pair string runner the integer one replaced: (transcript, receiver outputs)."""
    transcript = ListTranscript()
    for i in range(0, len(message), 2):
        transcript.append(XOR_CHAIN_SENDER, Channel.SECURE_PRIMITIVE, message[i])
        transcript.append(
            XOR_CHAIN_SENDER, Channel.PUBLIC_BROADCAST, xor_bits(message[i], message[i + 1])
        )
    transcript.freeze()
    secure = [e.payload for e in transcript.events if e.channel is Channel.SECURE_PRIMITIVE]
    broadcast = [e.payload for e in transcript.events if e.channel is Channel.PUBLIC_BROADCAST]
    decoded = "".join(odd + xor_bits(bcast, odd) for odd, bcast in zip(secure, broadcast))
    return transcript, {name: decoded for name in XOR_CHAIN_RECEIVERS}


EVENTS = st.lists(st.tuples(
    st.sampled_from(["alice", "bob"]),
    st.sampled_from(list(Channel)),
    st.text(alphabet="01", max_size=3),
))


EVEN_MESSAGES = st.integers(1, 128).flatmap(
    lambda pairs: st.text(alphabet="01", min_size=2 * pairs, max_size=2 * pairs)
)


class TestXorChainAgainstStringRunner:
    @settings(deadline=None)
    @given(EVEN_MESSAGES)
    def test_same_transcript_view_and_outputs(self, message):
        run = run_xor_chain(message)
        reference, outputs = string_run_xor_chain(message)
        assert events_of(run.transcript) == tuple(reference.events)
        assert run.transcript.to_records() == reference.to_records()
        assert public_events_of(run.transcript) == reference.public_events()
        assert eve_view(run.transcript) == list_eve_view(reference)
        assert dict(run.receiver_outputs) == outputs
        assert run.ghz_states_consumed == len(message) // 2

    @settings(deadline=None)
    @given(EVENTS)
    @example([
        ("alice", Channel.SECURE_PRIMITIVE, "101"),
        ("bob", Channel.PUBLIC_BROADCAST, ""),
        ("alice", Channel.PUBLIC_BROADCAST, "0"),
    ])
    def test_appended_transcript_matches_the_list_transcript(self, events):
        # The columns built whole (none when there are no events) against
        # the reference built event by event.
        columns, reference = Transcript(*zip(*events)), ListTranscript()
        for event in events:
            reference.append(*event)
        assert events_of(columns) == tuple(reference.events)
        assert columns.to_records() == reference.to_records()
        assert public_events_of(columns) == reference.public_events()
        public = "".join(p for _, c, p in events if c is Channel.PUBLIC_BROADCAST)
        assert eve_view(columns) == list_eve_view(reference) == public


class TestXorChainMemo:
    """`run_xor_chain` checks every call and shares one run per distinct message."""

    @settings(deadline=None)
    @given(EVEN_MESSAGES)
    def test_cached_run_matches_a_fresh_build_and_the_string_runner(self, message):
        run_xor_chain(message)
        run = run_xor_chain(message)
        assert run == protocols._xor_chain_run.__wrapped__(message)
        reference, outputs = string_run_xor_chain(message)
        assert events_of(run.transcript) == tuple(reference.events)
        assert dict(run.receiver_outputs) == outputs

    def test_repeated_call_returns_the_same_frozen_run(self):
        run = run_xor_chain("0110")
        assert run_xor_chain("0110") is run
        with pytest.raises(AttributeError):
            run.transcript.payloads.append("1")
        with pytest.raises(AttributeError):
            run.transcript.payloads = ("1", "1", "1", "1")
        assert eve_view(run_xor_chain("0110").transcript) == "11"

    @pytest.mark.parametrize("message", [["0", "1"], 10, "101", "0121"])
    def test_invalid_message_raises_value_error(self, message):
        # A list would reach the cache as an unhashable key (TypeError)
        # if the checks did not come first.
        with pytest.raises(ValueError):
            run_xor_chain(message)

    def test_memo_cap_is_the_cli_cap(self):
        assert max(SCENARIOS["xor-chain"].message_lengths) == protocols.XOR_CHAIN_MEMO_BITS

    def test_runs_within_the_cap_are_shared(self):
        message = "0110" * (protocols.XOR_CHAIN_MEMO_BITS // 4)
        assert run_xor_chain(message) is run_xor_chain(message)

    def test_long_message_is_run_uncached(self):
        message = random_bits(10_000, random.Random(5))
        size = protocols._xor_chain_run.cache_info().currsize
        run = run_xor_chain(message)
        assert protocols._xor_chain_run.cache_info().currsize == size
        assert run == protocols._xor_chain_run.__wrapped__(message)
        assert run_xor_chain(message) is not run
        assert dict(run.receiver_outputs) == dict.fromkeys(XOR_CHAIN_RECEIVERS, message)

    def test_str_subclass_message_becomes_a_plain_str(self, monkeypatch):
        class Bits(str):
            pass

        fresh = functools.cache(protocols._xor_chain_run.__wrapped__)
        monkeypatch.setattr(protocols, "_xor_chain_run", fresh)
        run = run_xor_chain(Bits("0110"))
        assert type(run.message) is str
        assert run_xor_chain("0110") is run


class TestEsQkd:
    def test_worked_key_block(self):
        # Initial (phi+, psi+) with Alice measuring psi+ pins Bob at phi+
        # and the key block at 1000.
        pair = (PHI_PLUS, PSI_PLUS)
        assert deduce_partner_result(PSI_PLUS, pair) == PHI_PLUS
        seed = next(
            s for s in range(1000)
            if run_es_qkd([pair], random.Random(s)).alice_results[0] == PSI_PLUS
        )
        run = run_es_qkd([pair], random.Random(seed))
        assert run.bob_results[0] == PHI_PLUS
        assert run.key == "1000"

    def test_key_block_always_reachable(self):
        reachable = {"0010", "0111", "1000", "1101"}
        seen = set()
        for seed in range(64):
            run = run_es_qkd([(PHI_PLUS, PSI_PLUS)], random.Random(seed))
            assert run.key in reachable
            seen.add(run.key)
        assert seen == reachable

    def test_equal_initial_labels_allow_identity_block(self):
        seed = next(
            s for s in range(1000)
            if run_es_qkd([(PHI_PLUS, PHI_PLUS)], random.Random(s)).alice_results[0] == PHI_PLUS
        )
        run = run_es_qkd([(PHI_PLUS, PHI_PLUS)], random.Random(seed))
        assert run.bob_results[0] == PHI_PLUS
        assert run.key == "0000"

    @pytest.mark.parametrize("alice, bob", [
        ([PSI_PLUS], [PHI_PLUS]),
        ([PSI_PLUS, PHI_PLUS], [PHI_PLUS]),
        ([PSI_PLUS], [PHI_PLUS, PHI_PLUS]),
    ])
    def test_results_must_cover_every_swap(self, alice, bob):
        # The key zips the results, so the first result pair alone gives
        # "1000": only the length check stands between this run and a 4-bit
        # key claimed as 8.
        with pytest.raises(ValueError, match="one result per party"):
            EsQkdRun([(PHI_PLUS, PSI_PLUS)] * 2, alice, bob)

    @pytest.mark.parametrize("pair", ALL_PAIRS)
    def test_outcomes_stay_in_oracle_support(self, pair):
        support = set(swap_distribution_oracle(*pair).support)
        for seed in range(16):
            run = run_es_qkd([pair], random.Random(seed))
            assert run.alice_results[0].bits + run.bob_results[0].bits in support

    def test_deduction_matches_both_ways(self):
        rng = random.Random(8)
        pairs = [ALL_PAIRS[rng.randrange(16)] for _ in range(40)]
        run = run_es_qkd(pairs, rng)
        for pair, alice, bob in zip(pairs, run.alice_results, run.bob_results):
            assert deduce_partner_result(alice, pair) == bob
            assert deduce_partner_result(bob, pair) == alice

    def test_off_support_outcome_pair_is_caught(self, monkeypatch):
        # (phi+, psi+) never yields phi+ on both sides.
        monkeypatch.setattr(protocols, "sample_swap", lambda dist, rng: (PHI_PLUS, PHI_PLUS))
        with pytest.raises(ValueError, match="outside the swap support"):
            run_es_qkd([(PHI_PLUS, PSI_PLUS)], random.Random(0))

    def test_run_record_rejects_an_off_support_outcome_pair(self):
        # Built directly, this run would have key 0000, and the leakage
        # report would credit it with 2 secure bits.
        with pytest.raises(ValueError, match=r"phi\+:phi\+ lies outside the swap support "
                                             r"of phi\+:psi\+"):
            EsQkdRun([(PHI_PLUS, PSI_PLUS)], [PHI_PLUS], [PHI_PLUS])
        with pytest.raises(ValueError, match="outside the swap support"):
            EsQkdRun([(PHI_PLUS, PSI_PLUS)] * 2, [PSI_PLUS, PHI_PLUS], [PHI_PLUS, PHI_PLUS])

    def test_support_check_over_every_outcome_pair(self, monkeypatch):
        # All 16 initial configurations x all 16 outcome pairs: the check
        # rejects exactly the pairs outside the swap support, and in the
        # rest both parties' block is alice.bits + bob.bits.
        rejected = []
        for pair in ALL_PAIRS:
            support = swap_distribution_rule(*pair).support
            for alice, bob in ALL_PAIRS:
                monkeypatch.setattr(protocols, "sample_swap", lambda dist, rng: (alice, bob))
                try:
                    run = run_es_qkd([pair], random.Random(0))
                except ValueError as exc:
                    assert "outside the swap support" in str(exc)
                    assert alice.bits + bob.bits not in support
                    rejected.append((pair, alice, bob))
                    continue
                assert run.key == alice.bits + bob.bits
                assert run.key in support
        assert len(rejected) == 192

    def test_particles_consumed(self):
        run = run_es_qkd([(PHI_PLUS, PSI_PLUS)] * 5, random.Random(0))
        assert run.particles_consumed == 20
        assert len(run.key) == 20

    @settings(deadline=None)
    @given(st.lists(st.sampled_from(ALL_PAIRS), min_size=1, max_size=20),
           st.integers(0, 2**32 - 1))
    def test_key_concatenates_the_result_blocks(self, pairs, seed):
        run = run_es_qkd(pairs, random.Random(seed))
        assert run.key == "".join(a.bits + b.bits for a, b in zip(run.alice_results,
                                                                 run.bob_results))
        assert len(run.key) == run.particles_consumed == 4 * len(pairs)

    def test_same_seed_same_run(self):
        pairs = ALL_PAIRS[:6]
        a = run_es_qkd(pairs, random.Random(77))
        b = run_es_qkd(pairs, random.Random(77))
        assert a.key == b.key
        assert a.alice_results == b.alice_results

    def test_empty_pair_list_rejected(self):
        with pytest.raises(ValueError):
            run_es_qkd([], random.Random(0))

    @settings(deadline=None)
    @given(st.lists(st.sampled_from(ALL_PAIRS), min_size=1, max_size=20),
           st.integers(0, 2**32 - 1))
    def test_outcomes_stay_in_rule_support(self, pairs, seed):
        run = run_es_qkd(pairs, random.Random(seed))
        for pair, alice, bob in zip(pairs, run.alice_results, run.bob_results):
            assert alice.bits + bob.bits in swap_distribution_rule(*pair).support


class TestOtpBaseline:
    def test_broadcast_is_the_ciphertext(self):
        transcript = run_otp_baseline("10", KeyMaterial("11", TRULY_RANDOM))
        events = events_of(transcript)
        assert len(events) == 1
        assert events[0].channel is Channel.PUBLIC_BROADCAST
        assert events[0].payload == "01"

    def test_reused_key_refused(self):
        key = KeyMaterial("11", TRULY_RANDOM)
        run_otp_baseline("10", key)
        with pytest.raises(ConditionViolationError) as err:
            run_otp_baseline("01", key)
        assert "reuse" in str(err.value)

    def test_short_key_refused(self):
        with pytest.raises(ConditionViolationError) as err:
            run_otp_baseline("0101", KeyMaterial("01", TRULY_RANDOM))
        assert "length" in str(err.value)

    def test_correlated_key_refused(self):
        key = KeyMaterial("0010", derived_correlated("entanglement-swap outcomes"))
        with pytest.raises(ConditionViolationError) as err:
            run_otp_baseline("1010", key)
        assert "randomness" in str(err.value)

    def test_roundtrips_for_random_messages(self):
        rng = random.Random(5)
        for _ in range(10):
            plaintext = random_bits(12, rng)
            transcript = run_otp_baseline(plaintext, random_key(12, rng))
            assert len(eve_view(transcript)) == 12

    def test_refusal_leaves_no_broadcast(self):
        key = KeyMaterial("01", TRULY_RANDOM)
        with pytest.raises(ConditionViolationError):
            run_otp_baseline("0101", key)
        assert key.is_fresh
