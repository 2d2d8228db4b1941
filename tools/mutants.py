"""Mutation checks: each mutant is one exact edit of a check, and some test must fail on it.

    python tools/mutants.py

A mutant names a program file, the exact text to replace, its
replacement, the narrowest test nodes that must catch it and, in one
line, why it matters.  Every `old` text is checked first: one that does
not occur exactly once in its file is an error (exit 2), so a mutant
cannot go stale silently.  Then those test nodes run once on an
unmutated copy of `src`, `tests` and `docs` and must pass, in a copy
whose `otplab` is the one imported, so that a failure below is the
mutant's.  Each mutant then runs in a temporary copy of its own; the
repository is never edited.  Prints one line per mutant, KILLED (with
the first failure pytest names) or SURVIVED (with its why), with its
seconds, and exits 1 if one survived or the unmutated run failed.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# `tests/test_cli.py` reads `docs/report.schema.json` when it is imported.
COPIED = ("src", "tests", "docs", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple
    why: str


CRYPTANALYSIS = "src/otplab/cryptanalysis.py"
LEAKAGE_TESTS = ("tests/test_cryptanalysis.py::TestLeakageReport",)
PROTOCOLS = "src/otplab/protocols.py"
MEMO_TESTS = ("tests/test_protocols.py::TestXorChainMemo",)
MUTANTS = (
    Mutant("es-qkd key-set check", CRYPTANALYSIS, 'raise ValueError(f"the key sets do not hold',
           'pass  # ValueError(f"the key sets do not hold', LEAKAGE_TESTS,
           "key sets for other pairs would price a run they do not describe"),
    Mutant("carrier count compared before the key sets", CRYPTANALYSIS,
           "if swaps == analysis.carriers and not all(", "if not all(", LEAKAGE_TESTS,
           "a run of another swap count must meet the count check, not a key-set zip error"),
    Mutant("otp-baseline one broadcast", CRYPTANALYSIS,
           "if run.channels.count(Channel.PUBLIC_BROADCAST) != 1:",
           "if run.channels.count(Channel.PUBLIC_BROADCAST) > 1:", LEAKAGE_TESTS,
           "a transcript with no broadcast has no pad bits to price"),
    Mutant("carrier count comparison", CRYPTANALYSIS,
           "if carriers != analysis.carriers:", "if False:", LEAKAGE_TESTS,
           "an analysis set up for one size would price a run of another"),
    Mutant("one bit per qubit ceiling", CRYPTANALYSIS,
           "per_qubit <= 1.0 + FLOAT_TOL", "per_qubit <= 1.5",
           ("tests/test_cryptanalysis.py::TestEfficiencyAudit",),
           "the audit's verdict is the paper's one-bit-per-qubit bound, not a looser one"),
    Mutant("swap blocks read in reverse", "src/otplab/quantum.py",
           "dist.int_codes[k if k < len(totals)", "dist.int_codes[::-1][k if k < len(totals)",
           ("tests/test_quantum.py::TestSampleSwap",),
           "the k-th quarter of [0, 1) must draw the k-th block, or every es-qkd draw moves"),
    Mutant("es-qkd result count", PROTOCOLS,
           "if not len(self.alice_results) == len(self.bob_results) == len(self.initial_pairs):",
           "if False:", ("tests/test_protocols.py::TestEsQkd",),
           "a run missing a swap's results would be priced on a truncated key"),
    Mutant("one bit per draw", "src/otplab/bits.py",
           "        r = getrandbits(2)\n        while", "        r = getrandbits(1)\n        while",
           ("tests/test_bits.py::TestRandomBits",),
           "random_bits must draw what rng.choice('01') draws, or every seeded report moves"),
    Mutant("memo reached before the str check", PROTOCOLS,
           "if type(message) is str and (run := _xor_chain_runs.get(message)) is not None:",
           "if (run := _xor_chain_runs.get(message)) is not None:", MEMO_TESTS,
           "an unhashable or subclassed message must reach check_bits, not the memo"),
    Mutant("a BLAS dot in the entropy", "src/otplab/infotheory.py",
           "np.multiply(chunk, terms, out=terms)\n        total += float(terms.sum())",
           "total += float(np.dot(chunk, terms))",
           ("tests/test_infotheory.py::TestNoBlas",),
           "a threaded dot's rounding depends on the BLAS thread count and CPU"),
    Mutant("memo bound", PROTOCOLS, "if len(message) <= XOR_CHAIN_MEMO_BITS else run",
           "if len(message) < XOR_CHAIN_MEMO_BITS else run", MEMO_TESTS,
           "16-bit runs, the CLI's cap, must be built once per process"),
    Mutant("bulk crossover", "src/otplab/bits.py", "trials <= BULK_TRIALS or",
           "trials < BULK_TRIALS or", ("tests/test_cli.py::TestReseededGenerator",),
           "a report of exactly BULK_TRIALS trials must reseed, as its bound says"),
    Mutant("sizing rule forgets --plaintext", "src/otplab/cli.py",
           'else ("--pairs", "--plaintext"):', 'else ("--pairs",):',
           ("tests/test_cli.py::TestConfigErrors",),
           "a sizing option the scheme's row does not take must be refused with exit 2"),
)


def _copy(directory: str) -> None:
    for name in COPIED:
        source, target = os.path.join(ROOT, name), os.path.join(directory, name)
        if os.path.isdir(source):
            shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, target)


def _env(directory: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(directory, "src"), PYTHONDONTWRITEBYTECODE="1")


def _pytest(directory: str, tests: tuple) -> subprocess.CompletedProcess:
    """The test files run in `directory`, stopping at the first failure."""
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=directory, env=_env(directory), stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)


def _stale(mutants) -> list:
    """A line per mutant whose `old` text does not occur exactly once in its file."""
    problems = []
    for mutant in mutants:
        with open(os.path.join(ROOT, mutant.path)) as handle:
            count = handle.read().count(mutant.old)
        if count != 1:
            problems.append(f"{mutant.name}: {mutant.old!r} occurs {count} times in {mutant.path}")
    return problems


def _unmutated_passes(mutants) -> bool:
    tests = tuple(sorted({test for mutant in mutants for test in mutant.tests}))
    with tempfile.TemporaryDirectory(prefix="mutants.") as directory:
        _copy(directory)
        where = subprocess.run([sys.executable, "-c", "import otplab; print(otplab.__file__)"],
                               cwd=directory, env=_env(directory), capture_output=True, text=True)
        if not where.stdout.startswith(os.path.join(directory, "src")):
            print(f"the copy imports otplab from {where.stdout.strip() or where.stderr}")
            return False
        start = time.monotonic()
        done = _pytest(directory, tests)
    print(f"{'PASS' if done.returncode == 0 else 'FAIL'} {time.monotonic() - start:6.1f} s  "
          f"unmutated: {' '.join(tests)}")
    if done.returncode != 0:
        print(done.stdout[-2000:])
    return done.returncode == 0


def _killed(mutant: Mutant) -> bool:
    with tempfile.TemporaryDirectory(prefix="mutants.") as directory:
        _copy(directory)
        path = os.path.join(directory, mutant.path)
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text.replace(mutant.old, mutant.new))
        start = time.monotonic()
        done = _pytest(directory, mutant.tests)
    killed = done.returncode != 0
    # The first failure pytest names, so a mutant killed by an error in the edit shows as one.
    caught = next((line for line in done.stdout.splitlines()
                   if line.startswith(("FAILED", "ERROR"))), "") if killed else mutant.why
    print(f"{'KILLED  ' if killed else 'SURVIVED'} {time.monotonic() - start:6.1f} s  "
          f"{mutant.name}{': ' * bool(caught)}{caught}", flush=True)
    return killed


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    problems = _stale(MUTANTS)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    if not _unmutated_passes(MUTANTS):
        return 1
    results = [_killed(mutant) for mutant in MUTANTS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
