import random

import pytest

from otplab.bits import random_bits, xor_bits
from otplab.infotheory import (
    Distribution,
    EnumerationBudgetError,
    entropy,
    enumerate_joint,
    mutual_information,
)
from otplab.otp import (
    TRULY_RANDOM,
    KeyExhaustedError,
    KeyMaterial,
    KeyMismatchError,
    ReuseViolationError,
    ciphertext_joint,
    decrypt,
    derived_correlated,
    encrypt,
    random_key,
    shannon_audit,
)

ES_QKD_KEY_BLOCKS = ["0010", "0111", "1000", "1101"]


def fresh_key(bits: str) -> KeyMaterial:
    return KeyMaterial(bits, TRULY_RANDOM)


class TestEncryptDecrypt:
    def test_xor_example(self):
        block = encrypt("10", fresh_key("11"))
        assert block.ciphertext == "01"

    def test_zero_key_identity(self):
        assert encrypt("0000", fresh_key("0000")).ciphertext == "0000"

    def test_decrypt_example(self):
        key = fresh_key("11")
        block = encrypt("10", key)
        assert decrypt(block, key) == "10"

    def test_ciphertext_equal_to_key_gives_zeros(self):
        key = fresh_key("1011")
        block = encrypt("1011", key)
        assert block.ciphertext == "0000"
        assert decrypt(block, key) == "1011"

    def test_roundtrip_random_16_bits(self):
        rng = random.Random(2024)
        for _ in range(25):
            plaintext = random_bits(16, rng)
            key = random_key(16, rng)
            assert decrypt(encrypt(plaintext, key), key) == plaintext

    def test_sequential_use_of_long_pad(self):
        key = fresh_key("110100")
        first = encrypt("10", key)
        second = encrypt("01", key)
        assert first.key_offset == 0 and second.key_offset == 2
        assert decrypt(first, key) == "10" and decrypt(second, key) == "01"

    def test_reuse_violation_on_second_encryption(self):
        key = fresh_key("11")
        encrypt("10", key)
        with pytest.raises(ReuseViolationError):
            encrypt("01", key)

    def test_exhausted_on_short_fresh_key(self):
        with pytest.raises(KeyExhaustedError):
            encrypt("1010", fresh_key("10"))

    def test_key_mismatch(self):
        key_a, key_b = fresh_key("11"), fresh_key("11")
        block = encrypt("10", key_a)
        with pytest.raises(KeyMismatchError):
            decrypt(block, key_b)


class TestLedger:
    def test_flags_advance_monotonically(self):
        key = fresh_key("1101")
        assert key.used_flags == (False,) * 4
        encrypt("10", key)
        assert key.used_flags == (True, True, False, False)
        encrypt("01", key)
        assert key.used_flags == (True, True, True, True)

    def test_decrypt_does_not_touch_ledger(self):
        key = fresh_key("1101")
        block = encrypt("10", key)
        before = key.used_flags
        decrypt(block, key)
        assert key.used_flags == before

    def test_origin_is_immutable(self):
        key = fresh_key("01")
        with pytest.raises(AttributeError):
            key.origin.kind = "derived-correlated"
        with pytest.raises(AttributeError):
            key.origin = derived_correlated("swapped out")


class TestShannonAudit:
    def test_correlated_key_distribution_fails_randomness(self):
        key = KeyMaterial("0010", derived_correlated("entanglement-swap outcomes"))
        dist = Distribution.uniform(ES_QKD_KEY_BLOCKS)
        report = shannon_audit(key, 4, key_distribution=dist)
        assert not report.randomness_ok
        assert report.key_entropy_bits == pytest.approx(2.0, abs=1e-9)
        assert report.deficiency_bits == pytest.approx(2.0, abs=1e-9)

    def test_uniform_key_distribution_passes_randomness(self):
        key = fresh_key("0110")
        report = shannon_audit(key, 4, key_distribution=Distribution.uniform_bits(4))
        assert report.randomness_ok
        assert report.deficiency_bits == pytest.approx(0.0, abs=1e-12)

    def test_short_key_fails_length(self):
        report = shannon_audit(fresh_key("01"), 4)
        assert not report.length_ok
        assert report.failures == ("length",)

    def test_origin_mode_uses_provenance(self):
        assert shannon_audit(fresh_key("01"), 2).randomness_ok
        derived = KeyMaterial("01", derived_correlated("swap outcomes"))
        report = shannon_audit(derived, 2)
        assert not report.randomness_ok
        assert report.key_entropy_bits is None

    def test_spent_pad_fails_reuse(self):
        key = fresh_key("0101")
        encrypt("01", key)
        report = shannon_audit(key, 2)
        assert not report.reuse_ok
        assert "reuse" in report.failures

    def test_all_ok_on_fresh_adequate_uniform_pad(self):
        report = shannon_audit(fresh_key("010110"), 4)
        assert report.all_ok and report.failures == ()

    def test_distribution_width_must_match_key(self):
        with pytest.raises(ValueError):
            shannon_audit(fresh_key("01"), 2, key_distribution=Distribution.uniform_bits(4))


class TestPerfectSecrecy:
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 6, 8])
    def test_uniform_pad_leaks_nothing(self, length):
        joint = ciphertext_joint(Distribution.uniform_bits(length))
        assert mutual_information(joint) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("length", [1, 2, 3, 5])
    def test_ciphertext_joint_matches_generic_enumeration(self, length):
        prior = Distribution.uniform_bits(length)

        def pad_view(plaintext):
            n = 1 << length
            return Distribution.uniform(
                xor_bits(plaintext, key) for key in Distribution.uniform_bits(length).entries
            )

        fast = ciphertext_joint(prior)
        slow = enumerate_joint(prior, pad_view)
        assert fast.entries == pytest.approx(slow.entries, abs=1e-12)

    def test_biased_prior_still_secret(self):
        prior = Distribution({"00": 0.7, "01": 0.1, "10": 0.1, "11": 0.1})
        assert mutual_information(ciphertext_joint(prior)) == pytest.approx(0.0, abs=1e-9)

    def test_correlated_key_leaks(self):
        # Keying a 4-bit pad from the constrained swap-outcome set leaves
        # only 2 bits of key entropy; the ciphertext then reveals the rest.
        prior = Distribution.uniform_bits(4)
        key_dist = Distribution.uniform(ES_QKD_KEY_BLOCKS)

        def view(plaintext):
            return Distribution(
                {xor_bits(plaintext, key): p for key, p in key_dist.entries.items()}
            )

        mi = mutual_information(enumerate_joint(prior, view))
        assert mi == pytest.approx(2.0, abs=1e-9)
        assert entropy(key_dist) < 4.0

    def test_budget_guard(self):
        with pytest.raises(EnumerationBudgetError):
            ciphertext_joint(Distribution.uniform_bits(13))
