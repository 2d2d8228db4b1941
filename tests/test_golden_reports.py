"""Pinned report bytes: the sha256 of stdout for a fixed matrix of command lines.

The determinism tests compare two runs of one build; this test compares a
build against recorded bytes.  The hashes were recorded before the CLI's
per-scheme runners and hand-written audit pipeline were replaced by the
scenario registry, with no source file yet edited, so they pin the
reports the earlier code wrote.  The two es-qkd attacks over all sixteen
initial configurations, each listed twice so the memoized swap oracle
answers from its cache, were recorded the same way before the oracle was
memoized.  The 2-bit xor-chain attack over 40 trials, whose trials repeat
the same four messages, was recorded before a report kept one trial dict
per distinct message.  The 10- and 14-bit xor-chain attacks, whose
posterior supports are formatted by two table lookups per outcome, were
recorded before supports were formatted in bulk.  A change that alters a
report on purpose must re-record the affected hash and say why.

The benchmark's workload command lines, at the benchmark seed and the
held-out seed, are pinned the same way; their hashes were recorded before
the carrier accounting moved into one table.  The same command lines with
`--format text` were recorded before each scheme's analysis and trial
became one closure and the leakage was built once per report.
"""

import contextlib
import hashlib
import io
import itertools
import random
import sys
from pathlib import Path

import pytest

from otplab.cli import SCENARIOS, build_parser, config_from_args, main
from otplab.cryptanalysis import leakage_report

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (perfbench/workloads.py imports its sibling `tracer`)

ES_PAIRS = "phi+:psi+,psi-:phi+,phi-:phi-"
ES_PLAINTEXT = "101001101100"
BELL_TOKENS = ("phi+", "phi-", "psi+", "psi-")
ES_ALL_PAIRS_TWICE = ",".join(
    2 * [f"{a}:{b}" for a, b in itertools.product(BELL_TOKENS, BELL_TOKENS)]
)
ES_ALL_PLAINTEXT = "0110100110010110" * 8

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
    *[
        ("attack", "--scenario", "es-qkd", "--pairs", ES_ALL_PAIRS_TWICE,
         "--plaintext", ES_ALL_PLAINTEXT, "--seed", "13", "--trials", "2", "--format", fmt)
        for fmt in ("json", "text")
    ],
    *[
        ("attack", "--scenario", "xor-chain", "--message-bits", "2", "--seed", "5",
         "--trials", "40", "--format", fmt)
        for fmt in ("json", "text")
    ],
    *[
        ("attack", "--scenario", "xor-chain", "--message-bits", bits, "--seed", "3",
         "--trials", "5", "--format", fmt)
        for bits in ("10", "14")
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
    f"attack --scenario es-qkd --pairs {ES_ALL_PAIRS_TWICE} --plaintext {ES_ALL_PLAINTEXT} --seed 13 --trials 2 --format json": "eb3d65a36b3c8d069e8356025a221074cbb852899a38d2899cc4933ab7ca57f1",
    f"attack --scenario es-qkd --pairs {ES_ALL_PAIRS_TWICE} --plaintext {ES_ALL_PLAINTEXT} --seed 13 --trials 2 --format text": "c0ea83f68f25f5d7594e6342526292c4ee5102c7ed6d7977c02651bd8d42e7f3",
    "attack --scenario xor-chain --message-bits 2 --seed 5 --trials 40 --format json": "81ec4efdfcda8c77f19fd8ef12c9c2c6e1174ced37b88abc895b75497381dcef",
    "attack --scenario xor-chain --message-bits 2 --seed 5 --trials 40 --format text": "8d60c3bbee76f7f4002d2edbe1947799bfceb94e1bb1fa1f87e8b34f620f41ed",
    "attack --scenario xor-chain --message-bits 10 --seed 3 --trials 5 --format json": "4baea582c5b7ad076a48b5426bde0566943d55578b2bcb7c799735937da6fb53",
    "attack --scenario xor-chain --message-bits 10 --seed 3 --trials 5 --format text": "267418a8043553e44c018d7b5e09585df7a8c42f1731be1339ad81df7d3bbd29",
    "attack --scenario xor-chain --message-bits 14 --seed 3 --trials 5 --format json": "2f0075f568cdfe144ee68c3f71bb3e763211ac1a850a3a4da04c41cfd76aaa28",
    "attack --scenario xor-chain --message-bits 14 --seed 3 --trials 5 --format text": "ffcfe352c3ab7501f759edf5e773b29b3ffa888db58023f66fe7a80a64368d46",
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


WORKLOAD_GOLDEN = {
    ("xor-chain-16", 1): "71794f9b029f5cf0d32ab166afc20df68fce3d09d9d0d7e7ebaed3608140cdda",
    ("otp-baseline-12", 1): "4f7edd9a2fddd078551e97525caab2c04810e7c3b5cedccbb721b61cc52f7820",
    ("es-qkd-200", 1): "58e4f9d6f23ea3519582e2c4ad67f891d2b0c66ca8a23316fc3106e14a5e7942",
    ("xor-chain-trials", 1): "c7ba18e412e3cbdc90ecc1106ce9f7b5950a7bb18baca5437deac205e53d0f98",
    ("xor-chain-16", 7919): "21040c689c4af019e23b9a09df54c08a7cbd9cec92e82de9fb00780bff1f7c18",
    ("otp-baseline-12", 7919): "295872e3c1e2d49d5f7b611f52f26cb68d220c262c3f48ce1707262201095106",
    ("es-qkd-200", 7919): "f2be418ff70fdde4fa212107aa574aa536cf7006de49eec177fad05d85b399b7",
    ("xor-chain-trials", 7919): "033d50678d1872a0a678ca8640186375755c478afc9d04108f9d5d2e250fd394",
}


@pytest.mark.parametrize("name,seed", list(WORKLOAD_GOLDEN))
def test_workload_report_bytes_match_recorded_hash(name, seed):
    assert stdout_sha256(workloads.command_line(name, seed)) == WORKLOAD_GOLDEN[name, seed]


WORKLOAD_TEXT_GOLDEN = {
    ("xor-chain-16", 1): "cb99584e28055699222c1496026585d750a1a91727fe2ccf4cb985c3bd4a7f07",
    ("otp-baseline-12", 1): "3923395b4988a56c9ad9b02131ffb0055cf5c3db2fc875cc412eff96713d24d7",
    ("es-qkd-200", 1): "f4e12b8067f89da4e4800d8dd3493bf15e233541cf85f480a296b51ed818aa30",
    ("xor-chain-trials", 1): "0e0bf6ee70db5dafb6f40681ef4a5983d7bb6d9170acf03a1d00a28a7b3775a3",
    ("xor-chain-16", 7919): "094f3fcd67d6607947f5c7cc9e12ae8fb0b8c478e9e89d13d09872efe165cb62",
    ("otp-baseline-12", 7919): "592a364d2861d7e82b3c0910db320753a3fbeb49a4c92777abefdf950e5568ff",
    ("es-qkd-200", 7919): "26abfd53dd2477b87ca83d90eb9eae0bb739d4268906680cca0317d527eba4c7",
    ("xor-chain-trials", 7919): "0cf6784b92e9e694c4bd730202cccafe2dd7a378da7be1aad3e60ed397531c2e",
}


def text_command_line(name, seed):
    return ["text" if arg == "json" else arg for arg in workloads.command_line(name, seed)]


@pytest.mark.parametrize("name,seed", list(WORKLOAD_TEXT_GOLDEN))
def test_workload_text_report_bytes_match_recorded_hash(name, seed):
    assert stdout_sha256(text_command_line(name, seed)) == WORKLOAD_TEXT_GOLDEN[name, seed]


@pytest.mark.parametrize("name,seed", list(WORKLOAD_GOLDEN))
def test_every_workload_run_gives_the_same_leakage(name, seed):
    # A report builds its leakage from one run, so every run must give it.
    args = build_parser().parse_args(workloads.command_line(name, seed))
    config = config_from_args(args)
    trial, figure = SCENARIOS[config.scenario].start(config, args.command == "attack")
    base = random.Random(config.seed)
    leakages = {leakage_report(trial(random.Random(base.getrandbits(64)))[0], (None, figure))
                for _ in range(config.trials)}
    assert len(leakages) == 1
