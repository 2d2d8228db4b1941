"""Pinned report bytes: the sha256 of stdout for a fixed matrix of command lines.

The determinism tests compare two runs of one build; this test compares a
build against recorded bytes.  The hashes were recorded before the CLI's
per-scheme runners and hand-written audit pipeline were replaced by the
scenario registry, with no source file yet edited, so they pin the
reports the earlier code wrote.  A change that alters a report on purpose
must re-record the affected hash and say why.
"""

import contextlib
import hashlib
import io

import pytest

from otplab.cli import main

ES_PAIRS = "phi+:psi+,psi-:phi+,phi-:phi-"
ES_PLAINTEXT = "101001101100"

COMMANDS = [
    *[
        (command, "--scenario", scenario, *sizes, "--seed", "7", "--trials", "3",
         "--format", fmt)
        for scenario, sizes in (
            ("xor-chain", ("--message-bits", "4")),
            ("es-qkd", ("--pairs", ES_PAIRS)),
            ("otp-baseline", ("--message-bits", "6")),
        )
        for command in ("simulate", "attack")
        for fmt in ("json", "text")
    ],
    *[
        ("attack", "--scenario", "es-qkd", "--pairs", ES_PAIRS, "--plaintext", ES_PLAINTEXT,
         "--seed", "11", "--trials", "2", "--format", fmt)
        for fmt in ("json", "text")
    ],
    ("simulate", "--scenario", "xor-chain", "--format", "json"),
    ("simulate", "--scenario", "es-qkd", "--format", "json"),
    ("simulate", "--scenario", "otp-baseline", "--format", "json"),
    ("audit",),
    ("audit", "--format", "json"),
]

GOLDEN = {
    "simulate --scenario xor-chain --message-bits 4 --seed 7 --trials 3 --format json": "2b2c8ab6d9ff8761cb3301440d218a02c39f8f6f82b7063de3db4f45e6c5f278",
    "simulate --scenario xor-chain --message-bits 4 --seed 7 --trials 3 --format text": "5de21fd211d9a3560fef2b47290dbfa8501a6957494629760dd990493c74bb40",
    "attack --scenario xor-chain --message-bits 4 --seed 7 --trials 3 --format json": "c5493d1d75af441900875f95c725d755264a4802077c4e2903406e7edab254ff",
    "attack --scenario xor-chain --message-bits 4 --seed 7 --trials 3 --format text": "80b330f596a7b43405f0b362f50f74dbcf3b89e8ad72fbf15348393b32ad72e4",
    "simulate --scenario es-qkd --pairs phi+:psi+,psi-:phi+,phi-:phi- --seed 7 --trials 3 --format json": "4e95f46c4258479c0ec06f7db077e1cc1a3ce6eb48eb0cde34008ee58da3364e",
    "simulate --scenario es-qkd --pairs phi+:psi+,psi-:phi+,phi-:phi- --seed 7 --trials 3 --format text": "3414ab94dd475076ad1f3e5e6227b8935973b2b9eb394f277623bedabe37a6e0",
    "attack --scenario es-qkd --pairs phi+:psi+,psi-:phi+,phi-:phi- --seed 7 --trials 3 --format json": "32fff7b87f824ea8085b65dd992a649f4de08e0a3317ec95f630c266c7ed4f9a",
    "attack --scenario es-qkd --pairs phi+:psi+,psi-:phi+,phi-:phi- --seed 7 --trials 3 --format text": "58dba462717ee88f80f1a3f3c72364f5b319128ad0ac38694b458ad211ff22e8",
    "simulate --scenario otp-baseline --message-bits 6 --seed 7 --trials 3 --format json": "f8ac795642efc11bb1c3b62b31664ebb448bb4a317135cc6f42899a25cc5819a",
    "simulate --scenario otp-baseline --message-bits 6 --seed 7 --trials 3 --format text": "9801b1025d07f23036c55802b95586633c9aca29efbd6afca420a6c2ba2e78d2",
    "attack --scenario otp-baseline --message-bits 6 --seed 7 --trials 3 --format json": "651903f09df05bc3ec6225a8a6feb7935eb87fa80a2e8edea0d9a71318831eb8",
    "attack --scenario otp-baseline --message-bits 6 --seed 7 --trials 3 --format text": "d1af167d805390aa72facba78cde0a58922a0e7ccd15102626e75c0fb1d3506b",
    "attack --scenario es-qkd --pairs phi+:psi+,psi-:phi+,phi-:phi- --plaintext 101001101100 --seed 11 --trials 2 --format json": "5915e8f773ec4d5ed06b530160b27ac291ac97179085428b64393a943881e403",
    "attack --scenario es-qkd --pairs phi+:psi+,psi-:phi+,phi-:phi- --plaintext 101001101100 --seed 11 --trials 2 --format text": "91f81c67f786c20d0c77005a765b4014a1280d27948426e525a56d087a22de7b",
    "simulate --scenario xor-chain --format json": "0d76938d6b364640f59648939491bda44ff6ef7b09daefdfd71d3bf49ddc67a7",
    "simulate --scenario es-qkd --format json": "08524b7d1cc8d9db50dbd7ee940d69aa64a11eef4820e1704f9a01b864a66de6",
    "simulate --scenario otp-baseline --format json": "3e0ab47a5b5261b5c25e036dab3c5d3f80c96e0dd56d2fe36b4cb026c5bd1894",
    "audit": "e3d6303d4c134e452bbafb2277ad7ea847e1f945cc688a9a407ed5cefec50e13",
    "audit --format json": "31554511cbb3b897949d400d7f62254ebf078bcec57c07c54072dd35b4c645de",
}


@pytest.fixture(autouse=True)
def _default_seed(monkeypatch):
    # The command lines without --seed rely on the built-in default of 0.
    monkeypatch.delenv("OTPLAB_SEED", raising=False)


def stdout_sha256(args) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(list(args)) == 0
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("args", COMMANDS, ids=" ".join)
def test_report_bytes_match_recorded_hash(args):
    assert stdout_sha256(args) == GOLDEN[" ".join(args)]
