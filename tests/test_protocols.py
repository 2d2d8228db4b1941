import itertools
import random

import pytest

from otplab.bits import random_bits
from otplab.otp import KeyMaterial, TRULY_RANDOM, derived_correlated, random_key
from otplab.protocols import (
    Channel,
    ConditionViolationError,
    Transcript,
    deduce_partner_result,
    eve_view,
    run_es_qkd,
    run_otp_baseline,
    run_xor_chain,
)
from otplab.quantum import BELL_LABELS, PHI_PLUS, PSI_PLUS, swap_distribution_oracle

ALL_PAIRS = list(itertools.product(BELL_LABELS, BELL_LABELS))


class TestTranscript:
    def test_append_only_after_freeze(self):
        t = Transcript()
        t.append("alice", Channel.PUBLIC_BROADCAST, "1")
        t.freeze()
        with pytest.raises(RuntimeError):
            t.append("alice", Channel.PUBLIC_BROADCAST, "0")

    def test_rejects_non_bit_payload(self):
        with pytest.raises(ValueError):
            Transcript().append("alice", Channel.PUBLIC_BROADCAST, "2")

    def test_line_serialization(self):
        t = Transcript()
        t.append("alice", Channel.SECURE_PRIMITIVE, "1")
        t.append("alice", Channel.PUBLIC_BROADCAST, "0")
        assert t.to_records() == [
            {"sender": "alice", "channel": "secure-primitive", "payload": "1"},
            {"sender": "alice", "channel": "public-broadcast", "payload": "0"},
        ]


class TestEveView:
    def test_secure_only_transcript_is_invisible(self):
        t = Transcript()
        t.append("alice", Channel.SECURE_PRIMITIVE, "101")
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
        secure = [e for e in run.transcript.events if e.channel is Channel.SECURE_PRIMITIVE]
        assert [e.payload for e in secure] == ["1"]
        assert eve_view(run.transcript) == "0"
        assert run.receiver_outputs == {"bob": "11", "charlie": "11"}

    def test_message_10(self):
        run = run_xor_chain("10")
        assert eve_view(run.transcript) == "1"
        assert run.receiver_outputs["bob"] == "10"

    def test_message_10110100(self):
        run = run_xor_chain("10110100")
        secure = [e.payload for e in run.transcript.events if e.channel is Channel.SECURE_PRIMITIVE]
        assert secure == ["1", "1", "0", "0"]
        assert eve_view(run.transcript) == "1010"
        assert run.receiver_outputs["charlie"] == "10110100"
        assert run.ghz_states_consumed == 4

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            run_xor_chain("101")
        with pytest.raises(ValueError):
            run_xor_chain("")

    @pytest.mark.parametrize("n_bits", [2, 4, 10, 16])
    def test_resource_counts(self, n_bits):
        run = run_xor_chain(random_bits(n_bits, random.Random(n_bits)))
        public = run.transcript.public_events()
        secure = [e for e in run.transcript.events if e.channel is Channel.SECURE_PRIMITIVE]
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
        channels = [e.channel for e in run.transcript.events]
        assert channels == [
            Channel.SECURE_PRIMITIVE,
            Channel.PUBLIC_BROADCAST,
            Channel.SECURE_PRIMITIVE,
            Channel.PUBLIC_BROADCAST,
        ]


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

    @pytest.mark.parametrize("pair", ALL_PAIRS)
    def test_outcomes_stay_in_oracle_support(self, pair):
        support = set(swap_distribution_oracle(*pair).support)
        for seed in range(16):
            run = run_es_qkd([pair], random.Random(seed))
            assert (run.alice_results[0], run.bob_results[0]) in support

    def test_deduction_matches_both_ways(self):
        rng = random.Random(8)
        pairs = [ALL_PAIRS[rng.randrange(16)] for _ in range(40)]
        run = run_es_qkd(pairs, rng)
        for pair, alice, bob in zip(pairs, run.alice_results, run.bob_results):
            assert deduce_partner_result(alice, pair) == bob
            assert deduce_partner_result(bob, pair) == alice

    def test_particles_consumed(self):
        run = run_es_qkd([(PHI_PLUS, PSI_PLUS)] * 5, random.Random(0))
        assert run.particles_consumed == 20
        assert len(run.key) == 20

    def test_same_seed_same_run(self):
        pairs = ALL_PAIRS[:6]
        a = run_es_qkd(pairs, random.Random(77))
        b = run_es_qkd(pairs, random.Random(77))
        assert a.key == b.key
        assert a.alice_results == b.alice_results

    def test_empty_pair_list_rejected(self):
        with pytest.raises(ValueError):
            run_es_qkd([], random.Random(0))


class TestOtpBaseline:
    def test_broadcast_is_the_ciphertext(self):
        transcript = run_otp_baseline("10", KeyMaterial("11", TRULY_RANDOM))
        events = transcript.events
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
