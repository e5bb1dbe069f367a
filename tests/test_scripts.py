"""The bundled scripts run to completion against the current package, so a
renamed or deleted public name cannot break them unnoticed."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ["classify_samples.py"],
        ["invariance_sweep.py", "0", "5"],
        ["kernel_ladder.py", "--sizes", "4", "--bits", "8", "--repeats", "1"],
        ["search_ladder.py", "--sizes", "8"],
        ["phase_split.py", "--workload", "screens"],
    ],
    ids=["classify_samples", "invariance_sweep", "kernel_ladder", "search_ladder",
         "phase_split"],
)
def test_script_exits_zero(argv):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
