"""Smoke test for the command-line scripts under ``scripts/``, and for
what importing the package loads.

The scripts import the package from ``src`` relative to the working
directory, so each runs as a subprocess from the repository root on the
smallest input it accepts.  A library API change that breaks a script
fails here.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["hom_grid.py", "--lo", "0", "--hi", "0"],
    ["phantom_scan.py", "--lo", "0", "--hi", "0"],
    ["derivation_search.py", "--trials", "1", "--per-trial", "1"],
    ["decompose_scaling.py", "--sizes", "8", "--repeats", "1"],
], ids=lambda argv: argv[0])
def test_script_runs(argv):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0])] + argv[1:],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_runtime_imports_only_the_standard_library():
    # numpy may be installed next to the package; a stray import of it, or
    # of anything else outside the standard library, fails here
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "before = set(sys.modules); import dualseq, dualseq.cli, dualseq.gen; "
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = {name.partition(".")[0] for name in proc.stdout.split()}
    assert "dualseq" in loaded
    assert loaded - {"dualseq"} <= set(sys.stdlib_module_names)
