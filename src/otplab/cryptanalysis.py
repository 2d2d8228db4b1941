"""Eavesdropper attacks and the leakage/efficiency accounting.

For xor-chain and otp-baseline, leakage is measured in bits of mutual
information between the secret and Eve's view, computed exactly from
their joint.  The accounting per scheme:

* xor-chain: each broadcast a' = a_odd XOR a_even hands Eve exactly one
  bit about the pair, so half the message leaks.  Effective throughput is
  1 secure bit per carrier state, not the advertised 2.
* es-qkd: each swap's outcome is a distribution over its 4-bit key block,
  confined to 4 of the 16 blocks once the initial states are known, so 4
  key bits carry only 2 bits of entropy.  The figure is the entropy of
  the key given the allowed key sets, log2 of 4 equally likely blocks per
  swap, not a mutual information computed from a joint.  Both key
  parities are public, which a known-ciphertext parity attack recovers
  with certainty.  Effective throughput is 2 secure bits per swap, not
  the advertised 4.
* otp-baseline: a correct pad leaks nothing; effective equals claimed.
  Every ciphertext has the same plaintext slice, which the joint stores
  once.

Each scheme's analysis is set up once (`attack_xor_chain` and
`attack_otp_baseline` per message prior, `attack_es_qkd_keyset` per list of
pairs) and returns an `Analysis`: the scheme and carrier count it is for,
Eve's attack and her bits, and the price those fields and `CARRIERS` fix,
derived when it is built (claimed, receiver and secure bits, resources
and the efficiency verdict).  `leakage_report` checks that an analysis
prices a run by comparing the run's scheme and carrier count with its two
fields, and returns it; the CLI runs the same.

`CARRIERS` states, once per scenario, what a carrier is, the bits the
scheme claims per carrier and the qubits each carrier costs.  Every
verdict is sanity-checked against the n-qubits-carry-at-most-n-bits
ceiling (one secure bit per qubit at best).  The carrier, resource and
verdict records are named tuples; an `Analysis` is a `records.Record`.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from .bits import check_bits, xor_bits
from .infotheory import Distribution, enumerate_joint, mutual_information, posterior
from .otp import ciphertext_joint
from .protocols import Channel, EsQkdRun, Transcript, XorChainRun, eve_view
from .quantum import swap_distribution_oracle
from .records import Record
from .tolerances import FLOAT_TOL


class CarrierAccounting(NamedTuple):
    """A scheme's carrier: its unit name, the bits claimed per carrier, its qubits."""

    unit: str
    claimed_bits: int
    qubits: int


# One three-qubit state per xor-chain pair, two Bell pairs per
# entanglement swap, and the baseline's pad costed at the optimum of one
# qubit per distributed key bit.
CARRIERS = {
    "xor-chain": CarrierAccounting("ghz-state", claimed_bits=2, qubits=3),
    "es-qkd": CarrierAccounting("swap", claimed_bits=4, qubits=4),
    "otp-baseline": CarrierAccounting("pad-bit", claimed_bits=1, qubits=1),
}


class ResourceCount(NamedTuple):
    carrier_states: int
    qubits: int


class EfficiencyVerdict(NamedTuple):
    """Per-resource throughput and the qubit-ceiling check."""

    claimed_bits_per_carrier: float
    effective_bits_per_carrier: float
    effective_bits_per_qubit: float
    holevo_ok: bool


class Analysis(Record):
    """Eve's analysis of one scheme's runs of `carriers` carriers, set up once, and its price.

    `attack` is the posterior over secrets given Eve's view (xor-chain,
    otp-baseline) or each swap's allowed key blocks (es-qkd); `eve_bits` is
    what she learns of such a run.  The rest is derived from `CARRIERS`:
    the bits claimed, the receiver's (as a float) and the secure bits
    (receiver's less Eve's), the resources and the efficiency verdict.  A
    carrier count that is not positive, or `eve_bits` outside [0, receiver
    bits], raises `ValueError`.
    """

    __slots__ = ("scenario", "carriers", "attack", "eve_bits", "claimed_bits", "receiver_bits",
                 "secure_bits", "resources", "efficiency")

    def __init__(self, scenario: str, carriers: int, attack, eve_bits: float):
        accounting = CARRIERS[scenario]
        resources = ResourceCount(carriers, accounting.qubits * carriers)
        if min(resources) <= 0:
            raise ValueError("resource counts must be positive")
        claimed = accounting.claimed_bits * carriers
        receiver = float(claimed)
        if not (-FLOAT_TOL <= eve_bits <= receiver + FLOAT_TOL):
            raise ValueError(f"eve_bits {eve_bits} outside [0, receiver_bits={receiver}]")
        secure = receiver - eve_bits
        per_qubit = secure / resources.qubits
        efficiency = EfficiencyVerdict(claimed / carriers, secure / carriers, per_qubit,
                                       per_qubit <= 1.0 + FLOAT_TOL)
        super().__init__(scenario, carriers, attack, eve_bits, claimed, receiver, secure,
                         resources, efficiency)


def _check_even(width: int) -> None:
    if width % 2 != 0:
        raise ValueError(f"xor-chain messages have an even length, got {width}")


def xor_chain_view(message: str) -> str:
    """Eve's view of an xor-chain run: the broadcast XOR of each bit pair."""
    _check_even(len(message))
    return xor_bits(message[0::2], message[1::2])


def _xor_chain_view_codes(codes: np.ndarray, width: int):
    """Integer form of `xor_chain_view` for `enumerate_joint`.

    Bitstrings are read most significant bit first, so bit i of the view
    is the XOR of code bits 2i+1 and 2i: bit 2i of `codes ^ (codes >> 1)`.
    """
    _check_even(width)
    parity = codes ^ (codes >> 1)
    view = np.zeros_like(codes)
    for i in range(width // 2):
        view |= ((parity >> (2 * i)) & 1) << i
    return view, width // 2


xor_chain_view.codes = _xor_chain_view_codes


def attack_xor_chain(message_prior: Distribution) -> Analysis:
    """Eve's exact attack on xor-chain runs, set up once per prior.

    `attack(view)` is the posterior over messages given an `eve_view`; a
    view of the wrong width raises `ValueError`.  eve_bits is the mutual
    information between the message and the public broadcasts.
    """
    joint = enumerate_joint(message_prior, xor_chain_view)
    return Analysis("xor-chain", joint.observation_bits, functools.partial(posterior, joint),
                    mutual_information(joint))


def attack_es_qkd_keyset(initial_pairs) -> Analysis:
    """Eve's key-set analysis from the public initial states alone.

    `attack` is a tuple of the 4 key blocks the oracle support allows, per
    swap.  eve_bits is the bits claimed less the entropy of the key given
    that knowledge (2 bits per swap; the blocks are independent across
    swaps), which leaves the analysis's secure bits that entropy.
    """
    key_sets = tuple(swap_distribution_oracle(*pair).support for pair in initial_pairs)
    key_entropy = sum(math.log2(len(blocks)) for blocks in key_sets)  # equally likely blocks
    claimed = CARRIERS["es-qkd"].claimed_bits * len(key_sets)
    return Analysis("es-qkd", len(key_sets), key_sets, claimed - key_entropy)


def attack_es_qkd_parity(ciphertext_block: str, initial_pair):
    """Recover (p1 XOR p3, p2 XOR p4) from one 4-bit ciphertext block.

    The swap support fixes both key parities: k1 XOR k3 and k2 XOR k4 equal
    the componentwise XOR of the initial labels, for every key the support
    allows.  XORing them out of the ciphertext parities yields the
    plaintext parities with certainty.
    """
    check_bits(ciphertext_block, "ciphertext block")
    if len(ciphertext_block) != 4:
        raise ValueError("a swap key block covers exactly 4 ciphertext bits")
    initial_12, initial_34 = initial_pair
    # Bit 1 of the folded code is c1 ^ c3 ^ (k1 ^ k3), bit 0 is c2 ^ c4 ^ (k2 ^ k4):
    # the key parities are the XOR of the initial label codes, bitflip bit first.
    code = int(ciphertext_block, 2)
    folded = (code >> 2) ^ code ^ initial_12.code ^ initial_34.code
    return (folded >> 1 & 1, folded & 1)


def attack_otp_baseline(message_prior: Distribution) -> Analysis:
    """Eve's exact attack on the baseline, set up once per prior.

    `attack(ciphertext)` is the posterior over plaintexts.  With a fresh
    uniform pad it equals the prior and eve_bits is exactly zero; both are
    computed from the exact (plaintext, ciphertext) joint, whose one
    plaintext slice is shared by every ciphertext, rather than assumed.
    """
    joint = ciphertext_joint(message_prior)
    return Analysis("otp-baseline", joint.observation_bits, functools.partial(posterior, joint),
                    mutual_information(joint))


def leakage_report(run, analysis: Analysis) -> Analysis:
    """Check that `analysis` prices `run`, and return it.

    Accepts an `XorChainRun`, an `EsQkdRun` or an otp-baseline `Transcript`.
    The run gives the scenario and its carrier count (for the baseline, the
    length of its one broadcast, `eve_view`).  An analysis for another
    scenario or carrier count raises `ValueError`, and so do es-qkd key sets
    that miss a run's block.
    """
    if isinstance(run, XorChainRun):
        scenario, carriers = "xor-chain", run.ghz_states_consumed
    elif isinstance(run, EsQkdRun):
        scenario, carriers = "es-qkd", len(run.initial_pairs)
    elif isinstance(run, Transcript):
        if run.channels.count(Channel.PUBLIC_BROADCAST) != 1:
            raise ValueError("an otp-baseline transcript carries exactly one broadcast")
        scenario, carriers = "otp-baseline", len(eve_view(run))
    else:
        raise TypeError(f"no leakage accounting for run type {type(run)}")
    if (analysis.scenario, analysis.carriers) != (scenario, carriers):
        raise ValueError(f"the analysis is for {analysis.scenario} runs of {analysis.carriers} "
                         f"carriers, not this {scenario} run of {carriers}")
    if scenario == "es-qkd" and not all(a.bits + b.bits in keys for a, b, keys in zip(
            run.alice_results, run.bob_results, analysis.attack, strict=True)):
        raise ValueError(f"the key sets do not hold this run's {carriers} key blocks")
    return analysis
