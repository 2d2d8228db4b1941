"""Eavesdropper attacks and the leakage/efficiency accounting.

Leakage is measured in bits of mutual information between the secret and
Eve's view, computed by exact enumeration.  The accounting per scheme:

* xor-chain: each broadcast a' = a_odd XOR a_even hands Eve exactly one
  bit about the pair, so half the message leaks.  Effective throughput is
  1 secure bit per carrier state, not the advertised 2.
* es-qkd: the swap outcome pair is confined to 4 of 16 label combinations
  once the initial states are known, so 4 key bits carry only 2 bits of
  entropy.  Both key parities are public, which a known-ciphertext parity
  attack recovers with certainty.  Effective throughput is 2 secure bits
  per swap, not the advertised 4.
* otp-baseline: a correct pad leaks nothing; effective equals claimed.

Every verdict is sanity-checked against the n-qubits-carry-at-most-n-bits
ceiling (one secure bit per qubit at best).
"""

from dataclasses import dataclass

from .bits import check_bits, xor_bits
from .infotheory import (
    Distribution,
    entropy,
    enumerate_joint,
    mutual_information,
    posterior,
)
from .otp import ciphertext_joint
from .protocols import EsQkdRun, Transcript, XorChainRun, eve_view
from .quantum import swap_distribution_oracle
from .tolerances import FLOAT_TOL

# Carrier sizes in qubits: one three-qubit state per xor-chain pair, two
# Bell pairs per entanglement swap, and the baseline's pad costed at the
# optimum of one qubit per distributed key bit.
QUBITS_PER_GHZ = 3
QUBITS_PER_SWAP = 4
QUBITS_PER_PAD_BIT = 1


@dataclass(frozen=True)
class ResourceCount:
    carrier_states: int
    qubits: int


@dataclass(frozen=True)
class LeakageReport:
    """Claimed vs. delivered vs. leaked bits for one scenario."""

    scenario: str
    claimed_bits: int
    receiver_bits: float
    eve_bits: float
    secure_bits: float
    resources: ResourceCount

    def __post_init__(self):
        if not (-FLOAT_TOL <= self.eve_bits <= self.receiver_bits + FLOAT_TOL):
            raise ValueError(
                f"eve_bits {self.eve_bits} outside [0, receiver_bits={self.receiver_bits}]"
            )
        if abs(self.secure_bits - (self.receiver_bits - self.eve_bits)) > FLOAT_TOL:
            raise ValueError("secure_bits must equal receiver_bits - eve_bits")


@dataclass(frozen=True)
class EfficiencyVerdict:
    """Per-resource throughput and the qubit-ceiling check."""

    claimed_bits_per_carrier: float
    effective_bits_per_carrier: float
    effective_bits_per_qubit: float
    holevo_ok: bool


def xor_chain_view(message: str) -> str:
    """Eve's view of an xor-chain run: the broadcast XOR of each bit pair."""
    return "".join(
        xor_bits(message[i], message[i + 1]) for i in range(0, len(message), 2)
    )


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
        support = swap_distribution_oracle(*pair).support
        blocks = tuple(sorted(x.bits + y.bits for x, y in support))
        key_sets.append(blocks)
        total_entropy += entropy(Distribution.uniform(blocks))
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
    information gain is exactly zero; both come out of the enumeration
    rather than being assumed.
    """
    joint = ciphertext_joint(message_prior)
    return posterior(joint, ciphertext), mutual_information(joint)


def leakage_report(run, attack_result) -> LeakageReport:
    """Assemble the leakage accounting for a run and its attack output.

    Accepts an `XorChainRun` with (posterior, eve_bits), an `EsQkdRun` with
    (key_sets, key_entropy_given_eve), or an otp-baseline `Transcript` with
    (posterior, eve_bits).  Only the second element of the pair is read.
    """
    if isinstance(run, XorChainRun):
        _, eve_bits = attack_result
        n = len(run.message)
        carriers = run.ghz_states_consumed
        return LeakageReport(
            scenario="xor-chain",
            claimed_bits=n,
            receiver_bits=float(n),
            eve_bits=eve_bits,
            secure_bits=float(n) - eve_bits,
            resources=ResourceCount(carriers, QUBITS_PER_GHZ * carriers),
        )
    if isinstance(run, EsQkdRun):
        _, key_entropy = attack_result
        swaps = len(run.initial_pairs)
        claimed = 4 * swaps
        eve_bits = claimed - key_entropy
        return LeakageReport(
            scenario="es-qkd",
            claimed_bits=claimed,
            receiver_bits=float(claimed),
            eve_bits=eve_bits,
            secure_bits=key_entropy,
            resources=ResourceCount(swaps, QUBITS_PER_SWAP * swaps),
        )
    if isinstance(run, Transcript):
        _, eve_bits = attack_result
        broadcasts = run.public_events()
        if len(broadcasts) != 1:
            raise ValueError("an otp-baseline transcript carries exactly one broadcast")
        n = len(broadcasts[0].payload)
        return LeakageReport(
            scenario="otp-baseline",
            claimed_bits=n,
            receiver_bits=float(n),
            eve_bits=eve_bits,
            secure_bits=float(n) - eve_bits,
            resources=ResourceCount(n, QUBITS_PER_PAD_BIT * n),
        )
    raise TypeError(f"no leakage accounting for run type {type(run)}")


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
