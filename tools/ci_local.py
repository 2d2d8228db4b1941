"""Run the workflow's steps offline, in one fresh clone of the committed HEAD.

    python tools/ci_local.py [--workflow .github/workflows/tests.yml]

Reads the workflow with PyYAML.  Every `run:` step of each job runs as
written with `bash -e -o pipefail`, in one fresh `git clone` of this
repository under a temporary directory, which is removed afterwards.
Uncommitted changes are not in the clone.  `uses:` steps and install
steps (`pip install ...`) are skipped: the clone stands in for the
checkout, and this interpreter, with the packages it already has, for
the set-up and install steps.  Steps with an `if:` condition are skipped
and named.  Unlike the hosted runner, a failed step does not stop the
steps after it.

When no `otplab` script is installed, a directory holding an `otplab`
shim that runs `python -m otplab.cli` goes in front of PATH, and the
clone's `src` in front of PYTHONPATH; the output says so.  `python` and
`python3` in the steps are this interpreter.

Prints one line per step, PASS or FAIL or SKIP with its seconds (a failed
step's last output lines follow it), and names the matrix legs that this
interpreter does not cover.  Exits 1 if any step failed.
"""

import argparse
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TAIL_LINES = 20
# What the workflow's install step provides: the tests' and the benchmark's imports.
PACKAGES = ("numpy", "pytest", "hypothesis", "jsonschema")


def _is_install(step: dict) -> bool:
    return step.get("run", "").lstrip().startswith("pip install")


def _shims(directory: str, installed: bool) -> list:
    """Write the PATH shims into `directory`; returns what they stand in for."""
    notes = []
    for name in ("python", "python3"):
        os.symlink(sys.executable, os.path.join(directory, name))
    if not installed:
        shim = os.path.join(directory, "otplab")
        with open(shim, "w") as handle:
            handle.write(f'#!/bin/sh\nexec "{sys.executable}" -m otplab.cli "$@"\n')
        os.chmod(shim, 0o755)
        notes.append(f"otplab is not installed: a PATH shim runs {sys.executable} -m otplab.cli, "
                     "with the clone's src in front of PYTHONPATH")
    return notes


def _probe(version: str) -> str:
    """What `python<version>` here lacks of the packages the steps import."""
    # PYENV_VERSION lets a pyenv shim find the version; other interpreters ignore it.
    env = dict(os.environ, PYENV_VERSION=version)
    code = ("import importlib.util as u; "
            f"print(', '.join(m for m in {PACKAGES!r} if u.find_spec(m) is None))")
    try:
        done = subprocess.run([f"python{version}", "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
    except OSError:
        return f"no python{version} here"
    if done.returncode != 0:
        return f"python{version} does not start here"
    missing = done.stdout.strip()
    return f"python{version} here lacks {missing}" if missing else "it has every package"


def _uncovered_legs(job: dict) -> list:
    """Matrix legs this interpreter does not run, and why."""
    here = "{}.{}".format(*sys.version_info)
    notes = []
    for version in map(str, job.get("strategy", {}).get("matrix", {}).get("python-version", [])):
        if version != here:
            notes.append(f"leg Python {version}: not run, as the steps ran on Python "
                         f"{platform.python_version()} only; {_probe(version)}")
    for step in job.get("steps", []):
        pins = [word.strip("\"'") for word in step.get("run", "").split() if "numpy==" in word]
        if _is_install(step) and pins:
            import numpy

            notes.append(f"leg {pins[0]} ({step.get('if', 'every leg')}): not run, as "
                         f"nothing is installed here and numpy is {numpy.__version__}")
    return notes


def run_job(name: str, job: dict, clone: str, env: dict) -> bool:
    print(f"job {name}")
    ok = True
    for step in job.get("steps", []):
        label = step.get("name") or step.get("uses") or step.get("run", "").splitlines()[0]
        if "uses" in step:
            print(f"  SKIP          {label} (uses:)")
            continue
        if _is_install(step):
            print(f"  SKIP          {label} (install step)")
            continue
        if "if" in step:
            print(f"  SKIP          {label} (if: {step['if']})")
            continue
        start = time.monotonic()
        done = subprocess.run(["bash", "--noprofile", "--norc", "-e", "-o", "pipefail", "-c",
                               step["run"]], cwd=clone, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        seconds = time.monotonic() - start
        passed = done.returncode == 0
        ok = ok and passed
        print(f"  {'PASS' if passed else 'FAIL'} {seconds:7.1f} s  {label}", flush=True)
        if not passed:
            for line in done.stdout.splitlines()[-TAIL_LINES:]:
                print(f"      | {line}")
    for note in _uncovered_legs(job):
        print(f"  {note}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workflow", default=os.path.join(ROOT, ".github", "workflows",
                                                           "tests.yml"))
    args = parser.parse_args()
    with open(args.workflow) as handle:
        workflow = yaml.safe_load(handle)
    installed = shutil.which("otplab") is not None
    with tempfile.TemporaryDirectory(prefix="ci_local.") as scratch:
        clone, shims = os.path.join(scratch, "repo"), os.path.join(scratch, "bin")
        os.mkdir(shims)
        subprocess.run(["git", "clone", "--quiet", ROOT, clone], check=True)
        head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=clone, check=True,
                              capture_output=True, text=True).stdout.strip()
        print(f"clone of {head} in {clone}")
        for note in _shims(shims, installed):
            print(note)
        env = dict(os.environ, PATH=os.pathsep.join([shims, os.environ.get("PATH", "")]))
        if not installed:
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [os.path.join(clone, "src"), env.get("PYTHONPATH")]))
        results = [run_job(name, job, clone, env) for name, job in workflow["jobs"].items()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
