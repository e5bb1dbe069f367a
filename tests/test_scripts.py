"""The bundled scripts run to completion against the current package, so a
renamed or deleted public name cannot break them unnoticed."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _every_request_timed(stdout):
    # a phase whose functions the CLI no longer calls reads 0 calls, and
    # its time lands in other_s
    split = json.loads(stdout)
    assert split["wrong_answers"] == 0
    assert split["phases"]["json_encode"]["calls"] == split["requests"]
    assert split["phases"]["parse"]["calls"] > 0


def _witness_phases_timed(stdout):
    # deform_step once per deform request, and the witness facts timed at all
    split = json.loads(stdout)
    assert split["wrong_answers"] == 0
    assert split["commands"]["deform"] > 0
    assert split["phases"]["deform_step"]["calls"] == split["commands"]["deform"]
    assert split["phases"]["witness_facts"]["calls"] > 0


@pytest.mark.parametrize(
    "argv, check",
    [
        (["classify_samples.py"], None),
        (["invariance_sweep.py", "0", "5"], None),
        (["kernel_ladder.py", "--sizes", "4", "--bits", "8", "--repeats", "1"], None),
        (["search_ladder.py", "--sizes", "8"], None),
        (["phase_split.py", "--workload", "screens"], _every_request_timed),
        (["phase_split.py", "--workload", "witness"], _witness_phases_timed),
    ],
    ids=["classify_samples", "invariance_sweep", "kernel_ladder", "search_ladder",
         "phase_split", "phase_split_witness"],
)
def test_script_exits_zero(argv, check):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
    if check is not None:
        check(result.stdout)
