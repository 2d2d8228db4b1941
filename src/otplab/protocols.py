"""Party/channel simulation and the three concrete messaging schemes.

Every run produces a `Transcript`: the ordered record of channel events.
Events on the public-broadcast channel are exactly what an eavesdropper
sees; events on the secure-bit primitive are delivered only to authorized
receivers.

Three schemes are modeled:

* xor-chain: the odd-numbered message bits travel over the secure
  primitive (one three-qubit carrier state each) and each even-numbered
  bit is "encrypted" with the preceding odd bit and broadcast publicly.
  The broadcast a' = a_odd XOR a_even is keyed by a message bit, not a key
  bit, which is what leaks.
* es-qkd: both parties hold Bell pairs in publicly known states and derive
  four key bits per entanglement swapping from their correlated
  measurement outcomes.  Nothing is broadcast; the flaw is that the
  outcome pair is constrained by the initial states.
* otp-baseline: a correct one-time pad over the public channel, refused
  outright unless the pad passes all three secrecy conditions.

The secure-bit primitive is ideal by assumption: carrier states deliver
their bit without leakage, so the analysis isolates the classical misuse.
"""

import enum
import random
from dataclasses import dataclass, field

from .bits import check_bits, xor_bits
from .otp import AuditReport, KeyMaterial, decrypt, encrypt, shannon_audit
from .quantum import BellLabel, sample_swap, swap_distribution_oracle


class Channel(enum.Enum):
    PUBLIC_BROADCAST = "public-broadcast"
    SECURE_PRIMITIVE = "secure-primitive"


@dataclass(frozen=True)
class Event:
    sender: str
    channel: Channel
    payload: str


@dataclass
class Transcript:
    """Append-only ordered record of channel events.

    Frozen once its protocol run completes; a frozen transcript is
    immutable and safe to share.
    """

    events: list = field(default_factory=list)
    _frozen: bool = field(default=False, repr=False)

    def append(self, sender: str, channel: Channel, payload: str) -> None:
        if self._frozen:
            raise RuntimeError("transcript is frozen; runs own it only while executing")
        self.events.append(Event(sender, channel, check_bits(payload, "payload")))

    def freeze(self) -> "Transcript":
        self._frozen = True
        return self

    def public_events(self) -> tuple:
        return tuple(e for e in self.events if e.channel is Channel.PUBLIC_BROADCAST)

    def to_records(self) -> list:
        """JSON-ready records, one {sender, channel, payload} per event."""
        return [
            {"sender": e.sender, "channel": e.channel.value, "payload": e.payload}
            for e in self.events
        ]


def eve_view(transcript: Transcript) -> str:
    """Everything the eavesdropper sees: public payloads concatenated in order."""
    return "".join(e.payload for e in transcript.public_events())


class ConditionViolationError(Exception):
    """The pad failed the secrecy audit; the baseline refuses to run."""

    def __init__(self, report: AuditReport):
        self.report = report
        super().__init__(
            "one-time-pad conditions violated: " + ", ".join(report.failures)
        )


@dataclass(frozen=True)
class XorChainRun:
    """One execution of the xor-chain scheme."""

    message: str
    transcript: Transcript
    receiver_outputs: dict
    ghz_states_consumed: int

    def __post_init__(self):
        if self.ghz_states_consumed != len(self.message) // 2:
            raise ValueError("carrier count must be half the message length")
        for name, output in self.receiver_outputs.items():
            if output != self.message:
                raise ValueError(f"receiver {name} reconstructed {output}, not the message")


@dataclass(frozen=True)
class EsQkdRun:
    """One execution of the entanglement-swapping key scheme."""

    initial_pairs: list
    alice_results: list
    bob_results: list
    key: str
    particles_consumed: int

    def __post_init__(self):
        if self.particles_consumed != 4 * len(self.initial_pairs):
            raise ValueError("each swap consumes exactly 4 particles")
        blocks = "".join(
            a.bits + b.bits for a, b in zip(self.alice_results, self.bob_results)
        )
        if blocks != self.key:
            raise ValueError("key must concatenate the result labels, 4 bits per swap")


def run_xor_chain(message: str, sender: str = "alice",
                  receivers=("bob", "charlie")) -> XorChainRun:
    """Run the xor-chain scheme on an even-length message.

    Per bit pair: the odd-numbered bit rides the secure primitive (one
    carrier state), then the XOR of the pair is broadcast publicly.
    Receivers rebuild the even bits from the broadcasts.
    """
    check_bits(message, "message")
    if len(message) < 2 or len(message) % 2 != 0:
        raise ValueError(f"message length must be even and >= 2, got {len(message)}")
    transcript = Transcript()
    for i in range(0, len(message), 2):
        transcript.append(sender, Channel.SECURE_PRIMITIVE, message[i])
        transcript.append(
            sender, Channel.PUBLIC_BROADCAST, xor_bits(message[i], message[i + 1])
        )
    transcript.freeze()

    # Receivers decode from the transcript alone: secure bits are delivered
    # to them, even bits come from broadcast XOR secure bit.
    secure = [e.payload for e in transcript.events if e.channel is Channel.SECURE_PRIMITIVE]
    broadcast = [e.payload for e in transcript.events if e.channel is Channel.PUBLIC_BROADCAST]
    decoded = "".join(odd + xor_bits(bcast, odd) for odd, bcast in zip(secure, broadcast))
    return XorChainRun(
        message=message,
        transcript=transcript,
        receiver_outputs={name: decoded for name in receivers},
        ghz_states_consumed=len(message) // 2,
    )


def deduce_partner_result(result: BellLabel, initial_pair) -> BellLabel:
    """The counterpart's swap outcome implied by one party's outcome.

    The swap support pairs outcomes bijectively: the two labels XOR to the
    XOR of the initial labels.
    """
    initial_12, initial_34 = initial_pair
    return BellLabel.from_code(result.code ^ initial_12.code ^ initial_34.code)


def run_es_qkd(initial_pairs, rng: random.Random) -> EsQkdRun:
    """Run the entanglement-swapping key scheme over a list of swaps.

    Each swap samples an outcome pair from the state-vector oracle; both
    parties then deduce each other's result and write down the same 4-bit
    key block (Alice's label first).
    """
    initial_pairs = list(initial_pairs)
    if not initial_pairs:
        raise ValueError("at least one initial Bell pair is required")
    alice_results = []
    bob_results = []
    key_parts = []
    for pair in initial_pairs:
        dist = swap_distribution_oracle(*pair)
        alice, bob = sample_swap(dist, rng)
        if deduce_partner_result(alice, pair) != bob or deduce_partner_result(bob, pair) != alice:
            raise AssertionError("sampled outcome pair escaped the swap support")
        alice_key_block = alice.bits + deduce_partner_result(alice, pair).bits
        bob_key_block = deduce_partner_result(bob, pair).bits + bob.bits
        if alice_key_block != bob_key_block:
            raise AssertionError("parties derived different key blocks")
        alice_results.append(alice)
        bob_results.append(bob)
        key_parts.append(alice_key_block)
    return EsQkdRun(
        initial_pairs=initial_pairs,
        alice_results=alice_results,
        bob_results=bob_results,
        key="".join(key_parts),
        particles_consumed=4 * len(initial_pairs),
    )


def run_otp_baseline(plaintext: str, key: KeyMaterial,
                     key_distribution=None) -> Transcript:
    """Correct one-time pad over the public channel.

    Refuses to run unless the pad passes all three secrecy conditions;
    otherwise broadcasts the ciphertext and checks the receiver's
    decryption round-trips.
    """
    check_bits(plaintext, "plaintext")
    report = shannon_audit(key, len(plaintext), key_distribution)
    if not report.all_ok:
        raise ConditionViolationError(report)
    block = encrypt(plaintext, key)
    transcript = Transcript()
    transcript.append("alice", Channel.PUBLIC_BROADCAST, block.ciphertext)
    transcript.freeze()
    if decrypt(block, key) != plaintext:
        raise AssertionError("receiver decryption did not round-trip")
    return transcript
