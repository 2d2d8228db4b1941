import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otplab import cryptanalysis
from otplab.bits import bits_to_int, codes_to_bits, int_to_bits, xor_bits
from otplab.cryptanalysis import (
    CARRIERS,
    Analysis,
    CarrierAccounting,
    EfficiencyVerdict,
    ResourceCount,
    attack_es_qkd_keyset,
    attack_es_qkd_parity,
    attack_otp_baseline,
    attack_xor_chain,
    leakage_report,
    xor_chain_view,
)
from otplab.infotheory import Distribution, entropy, enumerate_joint, posterior
from otplab.otp import random_key
from otplab.protocols import (
    Channel,
    Transcript,
    eve_view,
    run_es_qkd,
    run_otp_baseline,
    run_xor_chain,
)
from otplab.quantum import (
    BELL_LABELS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    swap_distribution_oracle,
    swap_distribution_rule,
)
from otplab.tolerances import FLOAT_TOL

ALL_PAIRS = list(itertools.product(BELL_LABELS, BELL_LABELS))
TWO_PAIRS = [(PHI_PLUS, PSI_PLUS), (PSI_MINUS, PHI_PLUS)]


def as_dict(dist: Distribution) -> dict:
    """{bitstring: probability} of a distribution: its support beside its probability column."""
    return dict(zip(dist.support, dist.probabilities.tolist()))


def key_entropy(analysis: Analysis) -> float:
    """The entropy of an es-qkd key given Eve's key sets: the bits claimed less hers."""
    return CARRIERS["es-qkd"].claimed_bits * analysis.carriers - analysis.eve_bits


class TestAttackXorChain:
    def test_two_bit_posterior_and_gain(self):
        run = run_xor_chain("11")  # broadcast is 0
        analysis = attack_xor_chain(Distribution.uniform_bits(2))
        post = analysis.attack(eve_view(run.transcript))
        assert set(post.support) == {"00", "11"}
        assert as_dict(post).get("00", 0.0) == pytest.approx(0.5, abs=1e-9)
        assert analysis.eve_bits == pytest.approx(1.0, abs=1e-9)

    def test_two_bit_throughput(self):
        run = run_xor_chain("11")
        result = attack_xor_chain(Distribution.uniform_bits(2))
        report = leakage_report(run, result)
        assert report.receiver_bits == pytest.approx(2.0, abs=1e-9)
        assert report.eve_bits == pytest.approx(1.0, abs=1e-9)
        assert report.secure_bits == pytest.approx(1.0, abs=1e-9)

    def test_eight_bit_gain(self):
        eve_bits = attack_xor_chain(Distribution.uniform_bits(8)).eve_bits
        assert eve_bits == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("n_bits", [2, 4, 6, 8, 10, 12, 14, 16])
    def test_leakage_is_half_the_message(self, n_bits):
        eve_bits = attack_xor_chain(Distribution.uniform_bits(n_bits)).eve_bits
        assert eve_bits == pytest.approx(n_bits / 2, abs=1e-9)

    def test_view_function_matches_protocol(self):
        for message in codes_to_bits(range(1 << 6), 6):
            assert xor_chain_view(message) == eve_view(run_xor_chain(message).transcript)

    def test_posterior_is_consistent_with_view(self):
        run = run_xor_chain("0110")
        attack = attack_xor_chain(Distribution.uniform_bits(4)).attack
        view = eve_view(run.transcript)
        post = attack(view)
        assert all(xor_chain_view(m) == view for m in post.support)
        assert run.message in post.support

    def test_prior_length_mismatch_rejected(self):
        # A 4-bit prior's attack takes 2-bit views; a 2-bit run's view has 1 bit.
        attack = attack_xor_chain(Distribution.uniform_bits(4)).attack
        with pytest.raises(ValueError, match="observation width 1 != joint width 2"):
            attack(eve_view(run_xor_chain("11").transcript))
        attack = attack_otp_baseline(Distribution.uniform_bits(4)).attack
        with pytest.raises(ValueError, match="observation width 3 != joint width 4"):
            attack("101")

    def test_attack_reads_posterior_at_set_up(self, monkeypatch):
        # The attacks bind `cryptanalysis.posterior` when they are set up, so
        # patching that module global (as a tracer does) reaches every call.
        seen = []

        def counted(joint, view):
            seen.append(view)
            return posterior(joint, view)

        monkeypatch.setattr(cryptanalysis, "posterior", counted)
        for setup, view in ((attack_xor_chain, "01"), (attack_otp_baseline, "0110")):
            setup(Distribution.uniform_bits(4)).attack(view)
        assert seen == ["01", "0110"]

    @pytest.mark.parametrize("width", [1, 3, 5])
    def test_odd_length_messages_rejected(self, width):
        with pytest.raises(ValueError, match="even length"):
            xor_chain_view("1" * width)
        with pytest.raises(ValueError, match="even length"):
            enumerate_joint(Distribution.uniform_bits(width), xor_chain_view)
        with pytest.raises(ValueError, match="even length"):
            xor_chain_view.codes(np.arange(1 << width), width)

    @settings(deadline=None)
    @given(st.integers(0, 31).map(lambda pairs: 2 * pairs), st.data())
    def test_integer_form_matches_string_form(self, width, data):
        codes = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=20))
        view_codes, view_bits = xor_chain_view.codes(np.array(codes, dtype=np.int64), width)
        assert view_bits == width // 2
        assert view_codes.tolist() == [
            bits_to_int(xor_chain_view(int_to_bits(c, width))) for c in codes
        ]


class TestAttackEsQkdKeyset:
    def test_phi_plus_psi_plus_key_set(self):
        analysis = attack_es_qkd_keyset([(PHI_PLUS, PSI_PLUS)])
        assert analysis.attack == (("0010", "0111", "1000", "1101"),)
        assert key_entropy(analysis) == pytest.approx(2.0, abs=1e-9)

    def test_equal_labels_key_set(self):
        analysis = attack_es_qkd_keyset([(PHI_PLUS, PHI_PLUS)])
        assert analysis.attack == (("0000", "0101", "1010", "1111"),)
        assert key_entropy(analysis) == pytest.approx(2.0, abs=1e-9)

    def test_two_swaps_add(self):
        analysis = attack_es_qkd_keyset([(PHI_PLUS, PSI_PLUS), (PHI_PLUS, PHI_PLUS)])
        assert key_entropy(analysis) == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("pair", ALL_PAIRS)
    def test_every_initial_pair_leaves_two_bits(self, pair):
        analysis = attack_es_qkd_keyset([pair])
        assert len(analysis.attack[0]) == 4
        assert key_entropy(analysis) == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("pair", ALL_PAIRS)
    def test_key_set_size_is_the_rule_entropy(self, pair):
        # The figure assumes equally likely blocks: log2 of the set size is
        # exactly the entropy of the dyadic rule.  The oracle's quarters are
        # rounded, so its entropy only comes within FLOAT_TOL of 2 bits.
        analysis = attack_es_qkd_keyset([pair])
        assert (math.log2(len(analysis.attack[0])) == entropy(swap_distribution_rule(*pair))
                == key_entropy(analysis))
        assert abs(entropy(swap_distribution_oracle(*pair)) - 2.0) <= FLOAT_TOL

    def test_residual_half_of_key_is_uniform(self):
        # What Eve cannot pin down -- Alice's result label -- runs over all
        # four values exactly once inside the reachable key set.
        for pair in ALL_PAIRS:
            prior = Distribution.uniform(attack_es_qkd_keyset([pair]).attack[0])
            joint = enumerate_joint(prior, lambda key: "")
            post = posterior(joint, "")
            first_halves = {key[:2] for key in post.support}
            assert first_halves == {"00", "01", "10", "11"}
            marginal = {}
            for key, p in as_dict(post).items():
                marginal[key[:2]] = marginal.get(key[:2], 0.0) + p
            for p in marginal.values():
                assert p == pytest.approx(0.25, abs=1e-9)

    @settings(deadline=None)
    @given(st.lists(st.sampled_from(ALL_PAIRS), min_size=1, max_size=20),
           st.integers(0, 2**32 - 1))
    def test_key_sets_are_the_rule_blocks(self, pairs, seed):
        key_sets = attack_es_qkd_keyset(pairs).attack
        assert key_sets == tuple(swap_distribution_rule(*pair).support for pair in pairs)
        run = run_es_qkd(pairs, random.Random(seed))
        for i, blocks in enumerate(key_sets):
            assert run.key[4 * i:4 * i + 4] in blocks


class TestAttackEsQkdParity:
    def test_zero_ciphertext_reveals_key_parities(self):
        assert attack_es_qkd_parity("0000", (PHI_PLUS, PSI_PLUS)) == (1, 0)

    def test_substitution_example(self):
        assert attack_es_qkd_parity("1010", (PHI_PLUS, PSI_PLUS)) == (1, 0)

    def test_equal_labels_pass_ciphertext_parities_through(self):
        assert attack_es_qkd_parity("1100", (PHI_PLUS, PHI_PLUS)) == (1, 1)
        assert attack_es_qkd_parity("0100", (PHI_PLUS, PHI_PLUS)) == (0, 1)

    def test_sound_on_all_1024_cases(self):
        failures = 0
        cases = 0
        for pair in ALL_PAIRS:
            for key in swap_distribution_oracle(*pair).support:
                for plaintext in codes_to_bits(range(1 << 4), 4):
                    ciphertext = xor_bits(plaintext, key)
                    recovered = attack_es_qkd_parity(ciphertext, pair)
                    p = [int(ch) for ch in plaintext]
                    if recovered != (p[0] ^ p[2], p[1] ^ p[3]):
                        failures += 1
                    cases += 1
        assert cases == 1024
        assert failures == 0

    def test_rejects_wrong_block_size(self):
        with pytest.raises(ValueError):
            attack_es_qkd_parity("00", (PHI_PLUS, PSI_PLUS))

    @pytest.mark.parametrize("pair", ALL_PAIRS)
    def test_integer_parities_equal_the_per_character_formula(self, pair):
        # The attack folds the block's integer code; the reference reads its characters.
        a, b = pair
        for block in codes_to_bits(range(1 << 4), 4):
            c = [int(ch) for ch in block]
            expected = (c[0] ^ c[2] ^ a.bitflip ^ b.bitflip, c[1] ^ c[3] ^ a.phase ^ b.phase)
            recovered = attack_es_qkd_parity(block, pair)
            assert recovered == expected
            assert type(recovered) is tuple and all(type(bit) is int for bit in recovered)

    @pytest.mark.parametrize("block, message", [
        ("01a1", "ciphertext block must be a string of 0/1 characters, got '01a1'"),
        (" 0101", "ciphertext block must be a string of 0/1 characters, got ' 0101'"),
        ("01_01", "ciphertext block must be a string of 0/1 characters, got '01_01'"),
        (["0", "1", "0", "1"], "ciphertext block must be a string of 0/1 characters, "
                               "got ['0', '1', '0', '1']"),
        ("", "a swap key block covers exactly 4 ciphertext bits"),
        ("010", "a swap key block covers exactly 4 ciphertext bits"),
        ("01010", "a swap key block covers exactly 4 ciphertext bits"),
    ])
    def test_bad_blocks_keep_their_messages(self, block, message):
        with pytest.raises(ValueError) as info:
            attack_es_qkd_parity(block, (PHI_PLUS, PSI_PLUS))
        assert str(info.value) == message


class TestAttackOtpBaseline:
    def test_posterior_equals_prior(self):
        prior = Distribution.uniform_bits(4)
        analysis = attack_otp_baseline(prior)
        post = analysis.attack("1011")
        assert analysis.eve_bits == pytest.approx(0.0, abs=1e-9)
        for outcome in as_dict(prior):
            assert as_dict(post).get(outcome, 0.0) == pytest.approx(0.0625, abs=1e-9)


class TestLeakageReport:
    def test_xor_chain_accounting(self):
        run = run_xor_chain("11")
        report = leakage_report(run, attack_xor_chain(Distribution.uniform_bits(2)))
        assert report.scenario == "xor-chain"
        assert report.claimed_bits == 2
        assert report.secure_bits == pytest.approx(1.0, abs=1e-9)
        assert report.resources == ResourceCount(carrier_states=1, qubits=3)

    def test_es_qkd_accounting(self):
        run = run_es_qkd([(PHI_PLUS, PSI_PLUS)], random.Random(1))
        report = leakage_report(run, attack_es_qkd_keyset(run.initial_pairs))
        assert report.claimed_bits == 4
        assert report.eve_bits == pytest.approx(2.0, abs=1e-9)
        assert report.secure_bits == pytest.approx(2.0, abs=1e-9)
        assert report.resources == ResourceCount(carrier_states=1, qubits=4)

    def test_otp_baseline_accounting(self):
        rng = random.Random(9)
        transcript = run_otp_baseline("110100", random_key(6, rng))
        prior = Distribution.uniform_bits(6)
        report = leakage_report(transcript, attack_otp_baseline(prior))
        assert report.eve_bits == pytest.approx(0.0, abs=1e-9)
        assert report.secure_bits == pytest.approx(6.0, abs=1e-9)

    @pytest.mark.parametrize("channels", [
        (), (Channel.SECURE_PRIMITIVE,), (Channel.PUBLIC_BROADCAST,) * 2,
    ], ids=["none", "secure-only", "two-broadcasts"])
    def test_otp_baseline_needs_exactly_one_broadcast(self, channels):
        transcript = Transcript(("alice",) * len(channels), channels, ("01",) * len(channels))
        with pytest.raises(ValueError, match="exactly one broadcast"):
            leakage_report(transcript, (None, 0.0))

    def test_point_mass_prior_reports_positive_zero_eve_bits(self):
        # A point-mass prior used to give eve_bits -0.0, rendered as "-0.0" in a report.
        prior = Distribution({"10": 1.0})
        xor_run = run_xor_chain("10")
        otp_run = run_otp_baseline("10", random_key(2, random.Random(1)))
        for run, attack in ((xor_run, attack_xor_chain(prior)),
                            (otp_run, attack_otp_baseline(prior))):
            eve_bits = leakage_report(run, attack).eve_bits
            assert eve_bits == 0.0 and math.copysign(1.0, eve_bits) == 1.0

    def test_unknown_run_type_raises(self):
        with pytest.raises(TypeError):
            leakage_report(object(), (None, 0.0))

    # Each scheme at one and two carriers: its runs, and the analysis its attack sets up.
    RUNS = {
        ("xor-chain", 1): lambda: run_xor_chain("11"),
        ("xor-chain", 2): lambda: run_xor_chain("0110"),
        ("es-qkd", 1): lambda: run_es_qkd(TWO_PAIRS[:1], random.Random(1)),
        ("es-qkd", 2): lambda: run_es_qkd(TWO_PAIRS, random.Random(1)),
        ("otp-baseline", 1): lambda: run_otp_baseline("1", random_key(1, random.Random(1))),
        ("otp-baseline", 2): lambda: run_otp_baseline("10", random_key(2, random.Random(1))),
    }
    ANALYSES = {
        ("xor-chain", 1): lambda: attack_xor_chain(Distribution.uniform_bits(2)),
        ("xor-chain", 2): lambda: attack_xor_chain(Distribution.uniform_bits(4)),
        ("es-qkd", 1): lambda: attack_es_qkd_keyset(TWO_PAIRS[:1]),
        ("es-qkd", 2): lambda: attack_es_qkd_keyset(TWO_PAIRS),
        ("otp-baseline", 1): lambda: attack_otp_baseline(Distribution.uniform_bits(1)),
        ("otp-baseline", 2): lambda: attack_otp_baseline(Distribution.uniform_bits(2)),
    }

    @pytest.mark.parametrize("run_key", sorted(RUNS))
    @pytest.mark.parametrize("analysis_key", sorted(ANALYSES))
    def test_an_analysis_for_another_scheme_or_size_is_refused(self, analysis_key, run_key):
        # Priced, a mismatched pairing would misstate the run: a 4-bit xor-chain
        # analysis gives a 2-bit run eve_bits 2.0 where the run's are 1.0.
        run, analysis = self.RUNS[run_key](), self.ANALYSES[analysis_key]()
        assert (analysis.scenario, analysis.carriers) == analysis_key
        if analysis_key != run_key:
            with pytest.raises(ValueError, match="the analysis is for"):
                leakage_report(run, analysis)
        else:
            report = leakage_report(run, analysis)
            assert (report.scenario, report.resources.carrier_states) == run_key
            assert report.eve_bits == analysis.eve_bits

    def test_key_sets_for_other_pairs_are_refused(self):
        run = run_es_qkd([(PHI_PLUS, PSI_PLUS)], random.Random(1))
        with pytest.raises(ValueError, match="key sets do not hold"):
            leakage_report(run, attack_es_qkd_keyset([(PHI_PLUS, PHI_PLUS)]))

    def test_the_check_calls_neither_the_attack_nor_the_oracle(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("called")

        # An analysis that holds no joint is priced from its fields alone.
        report = leakage_report(run_xor_chain("0110"), Analysis("xor-chain", 2, refuse, 2.0))
        assert (report.eve_bits, report.secure_bits) == (2.0, 2.0)
        pairs = [(PHI_PLUS, PSI_PLUS)] * 3
        run, analysis = run_es_qkd(pairs, random.Random(1)), attack_es_qkd_keyset(pairs)
        monkeypatch.setattr(cryptanalysis, "swap_distribution_oracle", refuse)
        report = leakage_report(run, analysis)
        assert (report.eve_bits, report.secure_bits) == (6.0, 6.0)

    def test_invariants_enforced(self):
        # Eve's bits lie in [0, receiver bits] when the analysis is built.
        for eve_bits in (3.0, -1.0):
            with pytest.raises(ValueError, match="outside"):
                Analysis("xor-chain", 1, None, eve_bits)


class TestEfficiencyAudit:
    def test_xor_chain_rates(self):
        run = run_xor_chain("11")
        verdict = leakage_report(run, attack_xor_chain(Distribution.uniform_bits(2))).efficiency
        assert verdict.claimed_bits_per_carrier == pytest.approx(2.0, abs=1e-9)
        assert verdict.effective_bits_per_carrier == pytest.approx(1.0, abs=1e-9)
        assert verdict.holevo_ok

    def test_es_qkd_rates(self):
        run = run_es_qkd([(PHI_PLUS, PSI_PLUS)], random.Random(2))
        verdict = leakage_report(run, attack_es_qkd_keyset(run.initial_pairs)).efficiency
        assert verdict.claimed_bits_per_carrier == pytest.approx(4.0, abs=1e-9)
        assert verdict.effective_bits_per_carrier == pytest.approx(2.0, abs=1e-9)
        assert verdict.effective_bits_per_qubit == pytest.approx(0.5, abs=1e-9)
        assert verdict.holevo_ok

    def test_ceiling_violation_is_flagged(self, monkeypatch):
        # A carrier that claims 8 bits on 4 qubits, with nothing leaked.
        monkeypatch.setitem(CARRIERS, "otp-baseline", CarrierAccounting("x", 8, 4))
        verdict = Analysis("otp-baseline", 1, None, 0.0).efficiency
        assert not verdict.holevo_ok

    def test_rejects_empty_resources(self):
        assert isinstance(Analysis("xor-chain", 1, None, 1.0).efficiency, EfficiencyVerdict)
        with pytest.raises(ValueError, match="resource counts must be positive"):
            Analysis("xor-chain", 0, None, 0.0)
