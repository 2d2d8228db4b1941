"""The package root holds only `__version__`: every name is imported from its module.

Each check runs in a fresh interpreter, because the test process has
already imported every module.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import otplab

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(info.name for info in pkgutil.iter_modules(otplab.__path__))
NUMPY_FREE = ["bits", "records", "tolerances"]
# The names that the package root re-exported before each name had one
# import path.
FORMER_REEXPORTS = [
    "AuditReport", "BELL_LABELS", "BellLabel", "Channel", "CipherBlock",
    "ConditionViolationError", "Distribution", "EfficiencyVerdict", "EsQkdRun",
    "JointDistribution", "KeyMaterial", "KeyOrigin", "LeakageReport",
    "Transcript", "XorChainRun", "attack_es_qkd_keyset", "attack_es_qkd_parity",
    "attack_otp_baseline", "attack_xor_chain", "bell_state_vector",
    "ciphertext_joint", "conditional_entropy", "decrypt", "derived_correlated",
    "efficiency_audit", "encrypt", "entropy", "enumerate_joint", "eve_view",
    "leakage_report", "mutual_information", "posterior", "random_key", "run_es_qkd",
    "run_otp_baseline", "run_xor_chain", "sample_swap", "shannon_audit",
    "swap_distribution_oracle", "swap_distribution_rule",
]


def fresh_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_every_module_is_found():
    assert set(NUMPY_FREE) | {"cli", "infotheory"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_on_its_own(module):
    out = fresh_python(f"import sys, otplab.{module}; print('numpy' in sys.modules)")
    assert module not in NUMPY_FREE or out == "False\n"


def test_the_root_exposes_only_the_version():
    assert len(set(FORMER_REEXPORTS)) == 40
    out = fresh_python(
        "import otplab\n"
        f"names = {FORMER_REEXPORTS!r}\n"
        "print(otplab.__version__, [n for n in names if hasattr(otplab, n)])\n"
        "import otplab.cli\n"  # binds every module on the package, and nothing else
        "print([n for n in names if hasattr(otplab, n)])\n"
    )
    assert out == f"{otplab.__version__} []\n[]\n"


def test_start_up_generates_no_code():
    # The records are plain classes: importing the CLI after what numpy and the
    # standard library already load adds neither `dataclasses` nor `traceback`.
    out = fresh_python(
        "import sys, numpy, json\n"
        "before = set(sys.modules)\n"
        "import otplab.cli\n"
        "added = set(sys.modules) - before\n"
        "print(sorted(added & {'dataclasses', 'traceback'}))\n"
        "print(sorted(name for name in added if name.startswith('otplab.')))\n"
        f"modules = [sys.modules[f'otplab.{{name}}'] for name in {MODULES!r}]\n"
        "print([f'{m.__name__}.{k}' for m in modules for k, v in vars(m).items()\n"
        "       if isinstance(v, type) and hasattr(v, '__dataclass_fields__')])\n"
    )
    assert out == f"[]\n{[f'otplab.{name}' for name in MODULES]}\n[]\n"


def test_the_command_line_loads_no_argparse():
    # The option tables replaced argparse, whose gettext import loads `locale`.
    out = fresh_python(
        "import contextlib, io, sys\n"
        "import otplab.cli as cli\n"
        "unwanted = ('argparse', 'gettext', 'locale')\n"
        "print([name for name in unwanted if name in sys.modules])\n"
        "for argv in (['simulate', '--scenario', 'xor-chain'],\n"
        "             ['attack', '--scenario', 'es-qkd', '--plaintext', '0110'], ['audit'],\n"
        "             ['--help'], ['simulate', '--scenario', 'xor-chain', '--bogus']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    print(code, [name for name in unwanted if name in sys.modules])\n"
    )
    assert out == "[]\n0 []\n0 []\n0 []\n0 []\n2 []\n"
