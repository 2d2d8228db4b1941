"""Party/channel simulation and the three concrete messaging schemes.

A run record stores each fact once; transcripts and run records are
immutable `records.Record`s, equal when their fields are.  A `Transcript`
is only its three tuple columns (senders, channels, payloads); its
public-broadcast payloads are exactly what an eavesdropper sees
(`eve_view`).  An xor-chain run is its message: it checks it, builds the
transcript from it and checks that a receiver rebuilds it
(`xor_chain_decode`).  An es-qkd run stores its pairs and both
parties' results and derives its key from them.  It checks each swap in
one pass over the three columns: a 2-tuple initial pair, four
`BellLabel`s (subclasses too), and the party codes XORing to the initial
codes, the swap support; a message naming the failing swap is built only
once a check has failed.

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
import random

from .bits import bits_to_int, check_bits, int_to_bits, xor_bits
from .otp import AuditReport, KeyMaterial, decrypt, encrypt, shannon_audit
from .quantum import BellLabel, sample_swap, swap_distribution_oracle
from .records import Record

XOR_CHAIN_SENDER = "alice"


class Channel(enum.Enum):
    PUBLIC_BROADCAST = "public-broadcast"
    SECURE_PRIMITIVE = "secure-primitive"


class Transcript(Record):
    """Immutable ordered record of channel events: only its three columns.

    Event i is (senders[i], channels[i], payloads[i]).  A transcript is
    built whole: the columns are stored as tuples of one length, every
    channel must be a `Channel` member and every payload is checked at
    once, so it is safe to share.
    """

    __slots__ = ("senders", "channels", "payloads")

    def __init__(self, senders=(), channels=(), payloads=()):
        columns = tuple(senders), tuple(channels), tuple(payloads)
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
        super().__init__(*columns)

    def to_records(self) -> list:
        """JSON-ready records, one {sender, channel, payload} per event.

        A channel's string is read from its stored `_value_`, not the enum's
        `value` property, which runs Python code on every read.
        """
        return [
            {"sender": sender, "channel": channel._value_, "payload": payload}
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


class XorChainRun(Record):
    """One execution of the xor-chain scheme: bits of even length >= 2.

    Per bit pair, the odd-numbered bit rides the secure primitive (one
    carrier state), then the pair's XOR (`xor_bits`, all pairs at once) is
    broadcast publicly.  The build checks that the receivers' round trip
    (`xor_chain_decode`) gives back the message, so runs of one message are equal.
    """

    __slots__ = ("message", "transcript")

    def __init__(self, message: str):
        check_bits(message, "message")
        if len(message) < 2 or len(message) % 2 != 0:
            raise ValueError(f"message length must be even and >= 2, got {len(message)}")
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
        if xor_chain_decode(transcript) != message:
            raise AssertionError("receivers did not rebuild the message")
        super().__init__(message, transcript)


class EsQkdRun(Record):
    """One execution of the entanglement-swapping key scheme.

    Per swap, at least one, its initial pair of two `BellLabel`s and each
    party's `BellLabel` outcome, as tuples of one length; the key is derived
    from them.  Each swap's outcome pair must lie in the swap support,
    alice.code ^ bob.code == a.code ^ b.code for the initial pair (a, b):
    the support pairs outcomes bijectively, so when Alice's deduction is
    Bob's result, Bob's deduction is hers, and both write down the block
    alice.bits + bob.bits.
    """

    __slots__ = ("initial_pairs", "alice_results", "bob_results")

    def __init__(self, initial_pairs, alice_results, bob_results):
        super().__init__(tuple(initial_pairs), tuple(alice_results), tuple(bob_results))
        if not self.initial_pairs:
            raise ValueError("at least one initial Bell pair is required")
        if not len(self.alice_results) == len(self.bob_results) == len(self.initial_pairs):
            raise ValueError("each swap has exactly one result per party")
        swaps = zip(self.initial_pairs, self.alice_results, self.bob_results)
        for swap, (pair, alice, bob) in enumerate(swaps):
            if not (type(pair) is tuple and len(pair) == 2 and isinstance(pair[0], BellLabel)
                    and isinstance(pair[1], BellLabel) and isinstance(alice, BellLabel)
                    and isinstance(bob, BellLabel)):
                raise ValueError(
                    f"swap {swap} must hold two initial BellLabels and one per party, "
                    f"got {pair!r}, {alice!r}, {bob!r}"
                )
            if alice.code ^ bob.code != pair[0].code ^ pair[1].code:
                raise ValueError(
                    f"outcome pair {alice}:{bob} lies outside the swap support "
                    f"of {pair[0]}:{pair[1]}"
                )

    @property
    def key(self) -> str:
        """Both parties' key: one 4-bit block alice.bits + bob.bits per swap."""
        return "".join([a.bits + b.bits for a, b in zip(self.alice_results, self.bob_results)])


def run_xor_chain(message: str) -> XorChainRun:
    """Run the xor-chain scheme on an even-length message (see `XorChainRun`).

    Runs of up to `XOR_CHAIN_MEMO_BITS` bits are memoized, each checked once,
    when it enters the memo: a `str` found there is returned as it is.
    """
    if type(message) is str and (run := _xor_chain_runs.get(message)) is not None:
        return run
    check_bits(message, "message")  # before the memo: a list is unhashable
    # Keyed on a plain str, so a subclass neither keys the memo nor becomes run.message.
    run = XorChainRun(message := str.__str__(message))
    return _xor_chain_runs.setdefault(message, run) if len(message) <= XOR_CHAIN_MEMO_BITS else run


# The longest memoized message, and the CLI's cap: `cli.SCENARIOS["xor-chain"]
# .message_lengths` ends here.  Longer runs are built per call.
XOR_CHAIN_MEMO_BITS = 16

# One run per distinct message, shared by every caller: it is immutable.
_xor_chain_runs: dict = {}


def xor_chain_decode(transcript: Transcript) -> str:
    """The message a receiver rebuilds from an xor-chain transcript alone.

    Secure bits are delivered to the receiver; each even bit is its
    broadcast XOR the secure bit before it.  The transcript checked its
    payloads when it was built, so the two channels' strings are XORed as
    integer codes.
    """
    received = transcript.payloads_on(Channel.SECURE_PRIMITIVE)
    broadcasts = eve_view(transcript)
    if len(received) != len(broadcasts):
        raise ValueError(f"bitstring length mismatch: {len(received)} vs {len(broadcasts)}")
    even = int_to_bits(bits_to_int(received) ^ bits_to_int(broadcasts), len(received))
    return "".join(map(str.__add__, received, even))


def run_es_qkd(initial_pairs, rng: random.Random) -> EsQkdRun:
    """Run the entanglement-swapping key scheme over a list of swaps.

    Each swap samples an outcome pair from the state-vector oracle; both
    parties then deduce each other's result and write down the same 4-bit
    key block (Alice's label first).  `EsQkdRun` checks that there is a
    swap, and each pair against the swap support.
    """
    initial_pairs = tuple(initial_pairs)
    outcomes = [sample_swap(swap_distribution_oracle(*pair), rng) for pair in initial_pairs]
    alice_results, bob_results = zip(*outcomes) if outcomes else ((), ())
    return EsQkdRun(initial_pairs, alice_results, bob_results)


def run_otp_baseline(plaintext: str, key: KeyMaterial) -> Transcript:
    """Correct one-time pad over the public channel, on a plaintext of at least 1 bit.

    Refuses to run unless the pad passes all three secrecy conditions, its
    randomness read from the pad's `truly_random` flag; otherwise broadcasts
    the ciphertext and checks the receiver's decryption round-trips.
    """
    if not check_bits(plaintext, "plaintext"):
        raise ValueError("plaintext must hold at least 1 bit")
    report = shannon_audit(key, len(plaintext))
    if not report.all_ok:
        raise ConditionViolationError(report)
    block = encrypt(plaintext, key)
    transcript = Transcript(("alice",), (Channel.PUBLIC_BROADCAST,), (block.ciphertext,))
    if decrypt(block, key) != plaintext:
        raise AssertionError("receiver decryption did not round-trip")
    return transcript
