"""Party/channel simulation and the three concrete messaging schemes.

A run record stores each fact once.  A `Transcript` is only its three
tuple columns (senders, channels, payloads); its public-broadcast payloads
are exactly what an eavesdropper sees (`eve_view`).  An es-qkd run stores
its pairs and both parties' results, and derives its key from them.

Three schemes are modeled:

* xor-chain: the odd-numbered message bits travel over the secure
  primitive (one three-qubit carrier state each) and each even-numbered
  bit is "encrypted" with the preceding odd bit and broadcast publicly.
  The broadcast a' = a_odd XOR a_even is keyed by a message bit, not a key
  bit, which is what leaks.  The run of each message of up to
  `XOR_CHAIN_MEMO_BITS` bits is built once per process and shared.
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
import functools
import random
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .bits import check_bits, xor_bits
from .otp import AuditReport, KeyMaterial, decrypt, encrypt, shannon_audit
from .quantum import BellLabel, sample_swap, swap_distribution_oracle

# The xor-chain's parties: one sender, two receivers who both rebuild the message.
XOR_CHAIN_SENDER = "alice"
XOR_CHAIN_RECEIVERS = ("bob", "charlie")


class Channel(enum.Enum):
    PUBLIC_BROADCAST = "public-broadcast"
    SECURE_PRIMITIVE = "secure-primitive"


@dataclass(frozen=True)
class Transcript:
    """Immutable ordered record of channel events: only its three columns.

    Event i is (senders[i], channels[i], payloads[i]).  A transcript is
    built whole: the columns are stored as tuples of one length, every
    channel must be a `Channel` member and every payload is checked at
    once, so it is safe to share.
    """

    senders: tuple = ()
    channels: tuple = ()
    payloads: tuple = ()

    def __post_init__(self):
        columns = tuple(self.senders), tuple(self.channels), tuple(self.payloads)
        if len({len(column) for column in columns}) > 1:
            raise ValueError(f"column lengths differ: {[len(column) for column in columns]}")
        for channel in columns[1]:
            if not isinstance(channel, Channel):
                raise ValueError(f"channel {channel!r} is not a Channel member")
        try:
            check_bits("".join(columns[2]))
        except (TypeError, ValueError):
            for payload in columns[2]:  # one of them raises, naming itself
                check_bits(payload, "payload")
        for name, column in zip(("senders", "channels", "payloads"), columns):
            object.__setattr__(self, name, column)

    def to_records(self) -> list:
        """JSON-ready records, one {sender, channel, payload} per event."""
        return [
            {"sender": sender, "channel": channel.value, "payload": payload}
            for sender, channel, payload in zip(self.senders, self.channels, self.payloads)
        ]

    def payloads_on(self, channel: Channel) -> str:
        """The payloads sent on one channel, concatenated in order."""
        return "".join([p for c, p in zip(self.channels, self.payloads) if c is channel])


def eve_view(transcript: Transcript) -> str:
    """Everything the eavesdropper sees: public payloads concatenated in order."""
    return transcript.payloads_on(Channel.PUBLIC_BROADCAST)


class ConditionViolationError(Exception):
    """The pad failed the secrecy audit; the baseline refuses to run."""

    def __init__(self, report: AuditReport):
        self.report = report
        super().__init__(
            "one-time-pad conditions violated: " + ", ".join(report.failures)
        )


@dataclass(frozen=True)
class XorChainRun:
    """One execution of the xor-chain scheme; `receiver_outputs` is read-only.

    The transcript must decode to the message (`xor_chain_decode`), so
    Eve's view of it is the message's, and at least one receiver must
    have rebuilt the message.
    """

    message: str
    transcript: Transcript
    receiver_outputs: Mapping
    ghz_states_consumed: int

    def __post_init__(self):
        object.__setattr__(self, "receiver_outputs", MappingProxyType(dict(self.receiver_outputs)))
        if 2 * self.ghz_states_consumed != len(self.message):
            raise ValueError("carrier count must be half the message length")
        decoded = xor_chain_decode(self.transcript)
        if decoded != self.message:
            raise ValueError(f"transcript decodes to {decoded!r}, not the message")
        if not self.receiver_outputs:
            raise ValueError("at least one receiver is required")
        for name, output in self.receiver_outputs.items():
            if output != self.message:
                raise ValueError(f"receiver {name} reconstructed {output}, not the message")


@dataclass(frozen=True)
class EsQkdRun:
    """One execution of the entanglement-swapping key scheme.

    Per swap, its initial Bell pairs and each party's outcome, as tuples of
    one length; the key and the particle count are derived from them.  Each
    swap's outcome pair must lie in the swap support: the support pairs
    outcomes bijectively, so when Alice's deduction is Bob's result, Bob's
    deduction is hers, and both write down the block alice.bits + bob.bits.
    """

    initial_pairs: tuple
    alice_results: tuple
    bob_results: tuple

    def __post_init__(self):
        for name in ("initial_pairs", "alice_results", "bob_results"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not len(self.alice_results) == len(self.bob_results) == len(self.initial_pairs):
            raise ValueError("each swap has exactly one result per party")
        for pair, alice, bob in zip(self.initial_pairs, self.alice_results, self.bob_results):
            if deduce_partner_result(alice, pair) != bob:
                raise ValueError(
                    f"outcome pair {alice}:{bob} lies outside the swap support "
                    f"of {pair[0]}:{pair[1]}"
                )

    @property
    def key(self) -> str:
        """Both parties' key: one 4-bit block alice.bits + bob.bits per swap."""
        return "".join([a.bits + b.bits for a, b in zip(self.alice_results, self.bob_results)])

    @property
    def particles_consumed(self) -> int:
        """Each swap consumes two Bell pairs, 4 particles."""
        return 4 * len(self.initial_pairs)


def run_xor_chain(message: str) -> XorChainRun:
    """Run the xor-chain scheme on an even-length message.

    Per bit pair: the odd-numbered bit rides the secure primitive (one
    carrier state), then the XOR of the pair is broadcast publicly.
    Receivers rebuild the even bits from the broadcasts.  The message is
    checked on every call; runs of up to `XOR_CHAIN_MEMO_BITS` bits are memoized.
    """
    check_bits(message, "message")
    if len(message) < 2 or len(message) % 2 != 0:
        raise ValueError(f"message length must be even and >= 2, got {len(message)}")
    # Keyed on a plain str, so a subclass neither keys the cache nor becomes run.message.
    build = _xor_chain_run if len(message) <= XOR_CHAIN_MEMO_BITS else _xor_chain_run.__wrapped__
    return build(str.__str__(message))


# The longest memoized message: the CLI's cap, the last of
# `cli.SCENARIOS["xor-chain"].message_lengths`.  Longer runs are built per call.
XOR_CHAIN_MEMO_BITS = 16


@functools.cache
def _xor_chain_run(message: str) -> XorChainRun:
    """One checked message's run, shared by every caller: it is immutable.

    All pairs are XORed at once by `xor_bits`, and the transcript is built
    from its three columns.
    """
    pairs = len(message) // 2
    secure = message[0::2]
    payloads = [""] * (2 * pairs)
    payloads[0::2] = secure
    payloads[1::2] = xor_bits(secure, message[1::2])
    transcript = Transcript(
        senders=(XOR_CHAIN_SENDER,) * (2 * pairs),
        channels=(Channel.SECURE_PRIMITIVE, Channel.PUBLIC_BROADCAST) * pairs,
        payloads=payloads,
    )
    # Each receiver rebuilds the message; `XorChainRun` checks that the
    # transcript decodes to it.
    return XorChainRun(
        message=message,
        transcript=transcript,
        receiver_outputs=dict.fromkeys(XOR_CHAIN_RECEIVERS, message),
        ghz_states_consumed=pairs,
    )


def xor_chain_decode(transcript: Transcript) -> str:
    """The message a receiver rebuilds from an xor-chain transcript alone.

    Secure bits are delivered to the receiver; each even bit is its
    broadcast XOR the secure bit before it.
    """
    received = transcript.payloads_on(Channel.SECURE_PRIMITIVE)
    broadcasts = transcript.payloads_on(Channel.PUBLIC_BROADCAST)
    return "".join(map(str.__add__, received, xor_bits(received, broadcasts)))


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
    key block (Alice's label first).  `EsQkdRun` checks each pair against
    the swap support.
    """
    initial_pairs = tuple(initial_pairs)
    if not initial_pairs:
        raise ValueError("at least one initial Bell pair is required")
    alice_results = []
    bob_results = []
    for pair in initial_pairs:
        alice, bob = sample_swap(swap_distribution_oracle(*pair), rng)
        alice_results.append(alice)
        bob_results.append(bob)
    return EsQkdRun(initial_pairs, alice_results, bob_results)


def run_otp_baseline(plaintext: str, key: KeyMaterial) -> Transcript:
    """Correct one-time pad over the public channel.

    Refuses to run unless the pad passes all three secrecy conditions,
    randomness audited by the pad's origin; otherwise broadcasts the
    ciphertext and checks the receiver's decryption round-trips.
    """
    check_bits(plaintext, "plaintext")
    report = shannon_audit(key, len(plaintext))
    if not report.all_ok:
        raise ConditionViolationError(report)
    block = encrypt(plaintext, key)
    transcript = Transcript(("alice",), (Channel.PUBLIC_BROADCAST,), (block.ciphertext,))
    if decrypt(block, key) != plaintext:
        raise AssertionError("receiver decryption did not round-trip")
    return transcript
