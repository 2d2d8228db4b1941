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

`CARRIERS` states, once per scenario, what a carrier is, the bits the
scheme claims per carrier and the qubits each carrier costs.  Every
verdict is sanity-checked against the n-qubits-carry-at-most-n-bits
ceiling (one secure bit per qubit at best).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bits import check_bits, xor_bits
from .infotheory import Distribution, enumerate_joint, mutual_information, posterior
from .otp import ciphertext_joint
from .protocols import Channel, EsQkdRun, Transcript, XorChainRun, eve_view
from .quantum import swap_distribution_oracle
from .tolerances import FLOAT_TOL


@dataclass(frozen=True)
class CarrierAccounting:
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


@dataclass(frozen=True)
class ResourceCount:
    carrier_states: int
    qubits: int


@dataclass(frozen=True)
class LeakageReport:
    """Claimed vs. delivered vs. leaked bits for one scenario.

    `secure_bits` is derived: `receiver_bits - eve_bits`.
    """

    scenario: str
    claimed_bits: int
    receiver_bits: float
    eve_bits: float
    secure_bits: float = field(init=False)
    resources: ResourceCount

    def __post_init__(self):
        if not (-FLOAT_TOL <= self.eve_bits <= self.receiver_bits + FLOAT_TOL):
            raise ValueError(
                f"eve_bits {self.eve_bits} outside [0, receiver_bits={self.receiver_bits}]"
            )
        object.__setattr__(self, "secure_bits", self.receiver_bits - self.eve_bits)


@dataclass(frozen=True)
class EfficiencyVerdict:
    """Per-resource throughput and the qubit-ceiling check."""

    claimed_bits_per_carrier: float
    effective_bits_per_carrier: float
    effective_bits_per_qubit: float
    holevo_ok: bool


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


def attack_xor_chain(run: XorChainRun, message_prior: Distribution):
    """Exact posterior over messages given Eve's view, plus her information gain.

    Returns (posterior, eve_bits) where eve_bits is the mutual information
    between the message and the public broadcasts under the given prior.
    """
    if message_prior.bit_length != len(run.message):
        raise ValueError("prior must range over messages of the run's length")
    joint = enumerate_joint(message_prior, xor_chain_view)
    eve_bits = mutual_information(joint)
    return posterior(joint, eve_view(run.transcript)), eve_bits


def attack_es_qkd_keyset(initial_pairs):
    """Eve's key-set analysis from the public initial states alone.

    Returns (key_sets, key_entropy_given_eve): per swap, the 4 key blocks
    the oracle support allows, and the total entropy of the key given that
    knowledge (2 bits per swap; the blocks are independent across swaps).
    """
    key_sets = []
    total_entropy = 0.0
    for pair in initial_pairs:
        blocks = swap_distribution_oracle(*pair).support
        key_sets.append(blocks)
        total_entropy += math.log2(len(blocks))  # the blocks are equally likely
    return key_sets, total_entropy


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
    key_parity_13 = initial_12.bitflip ^ initial_34.bitflip
    key_parity_24 = initial_12.phase ^ initial_34.phase
    c = [int(ch) for ch in ciphertext_block]
    return (c[0] ^ c[2] ^ key_parity_13, c[1] ^ c[3] ^ key_parity_24)


def attack_otp_baseline(message_prior: Distribution, ciphertext: str):
    """Posterior over plaintexts given the broadcast ciphertext.

    With a fresh uniform pad the posterior equals the prior and Eve's
    information gain is exactly zero; both are computed from the exact
    (plaintext, ciphertext) joint, whose one plaintext slice is shared by
    every ciphertext, rather than being assumed.
    """
    joint = ciphertext_joint(message_prior)
    return posterior(joint, ciphertext), mutual_information(joint)


def leakage_report(run, attack_result) -> LeakageReport:
    """Assemble the leakage accounting for a run and its attack output.

    Accepts an `XorChainRun` with (posterior, eve_bits), an `EsQkdRun` with
    (key_sets, key_entropy_given_eve), or an otp-baseline `Transcript` with
    (posterior, eve_bits).  Only the second element of the pair is read.
    The run gives the scenario and its carrier count (for the baseline, the
    length of its one broadcast, `eve_view`); `CARRIERS` gives the rest.
    """
    _, figure = attack_result
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
    accounting = CARRIERS[scenario]
    claimed = accounting.claimed_bits * carriers
    # es-qkd's figure is the key entropy Eve leaves; the others' is Eve's information.
    eve_bits = claimed - figure if scenario == "es-qkd" else figure
    return LeakageReport(
        scenario=scenario,
        claimed_bits=claimed,
        receiver_bits=float(claimed),
        eve_bits=eve_bits,
        resources=ResourceCount(carriers, accounting.qubits * carriers),
    )


def efficiency_audit(report: LeakageReport) -> EfficiencyVerdict:
    """Per-carrier and per-qubit rates plus the qubit-ceiling flag."""
    if report.resources.carrier_states <= 0 or report.resources.qubits <= 0:
        raise ValueError("resource counts must be positive")
    per_qubit = report.secure_bits / report.resources.qubits
    return EfficiencyVerdict(
        claimed_bits_per_carrier=report.claimed_bits / report.resources.carrier_states,
        effective_bits_per_carrier=report.secure_bits / report.resources.carrier_states,
        effective_bits_per_qubit=per_qubit,
        holevo_ok=per_qubit <= 1.0 + FLOAT_TOL,
    )
