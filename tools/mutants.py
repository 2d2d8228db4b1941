"""Mutation checks: each mutant is one exact edit of a check, and some test must fail on it.

    python tools/mutants.py

A mutant names a program file, the exact text to replace, its
replacement and the test files that must catch it.  Every `old` text is
checked first: one that does not occur exactly once in its file is an
error (exit 2), so a mutant cannot go stale silently.  Then those test
files run once on an unmutated copy of `src` and `tests` and must pass,
in a copy whose `otplab` is the one imported, so that a failure below
is the mutant's.  Each mutant then runs in a temporary copy of its own;
the repository is never edited.  Prints one line per mutant, KILLED
(with the first failure pytest names) or SURVIVED, with its seconds, and
exits 1 if one survived or the unmutated run failed.
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
COPIED = ("src", "tests", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple


CRYPTANALYSIS = "src/otplab/cryptanalysis.py"
CRYPTANALYSIS_TESTS = ("tests/test_cryptanalysis.py",)
MUTANTS = (
    Mutant("es-qkd key-set check", CRYPTANALYSIS, 'raise ValueError(f"the key sets do not hold',
           'pass  # ValueError(f"the key sets do not hold', CRYPTANALYSIS_TESTS),
    Mutant("carrier count compared before the key sets", CRYPTANALYSIS,
           "if swaps == analysis.carriers and not all(", "if not all(", CRYPTANALYSIS_TESTS),
    Mutant("otp-baseline one broadcast", CRYPTANALYSIS,
           "if run.channels.count(Channel.PUBLIC_BROADCAST) != 1:",
           "if run.channels.count(Channel.PUBLIC_BROADCAST) > 1:", CRYPTANALYSIS_TESTS),
    Mutant("carrier count comparison", CRYPTANALYSIS,
           "if carriers != analysis.carriers:", "if False:", CRYPTANALYSIS_TESTS),
    Mutant("one bit per qubit ceiling", CRYPTANALYSIS,
           "per_qubit <= 1.0 + FLOAT_TOL", "per_qubit <= 1.5", CRYPTANALYSIS_TESTS),
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
                   if line.startswith(("FAILED", "ERROR"))), "")
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
