"""Golden outputs: every file ``aamcba run`` writes for the bundled
scenario, with default toggles, with two toggles flipped, and with a
factor subset under four other toggles, equals its committed copy under
``tests/golden/run/`` byte for byte.

A change that shifts any written number, however little, fails here, and
the message names the file and its first differing line. When a change is
meant to alter outputs, regenerate the files (see ``golden_files``) in the
same commit and say which files changed and why.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import aamcba
from golden_files import (
    GOLDEN,
    RUN_CASES,
    assert_matches_golden,
    read_tree,
    run_outputs,
)


@pytest.mark.parametrize(
    "case", list(RUN_CASES),
    ids=["default", "bf6_incremental-bf7_case3", "subset-seed7-four-toggles"],
)
def test_run_outputs_match_golden_hashes(tmp_path, capsys, case):
    got = run_outputs(RUN_CASES[case], tmp_path / "out")
    capsys.readouterr()
    assert_matches_golden(GOLDEN / "run" / case, got)


def test_subset_run_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    # OpenBLAS picks its kernels by CPU family; OPENBLAS_CORETYPE forces one.
    # A closed-form run sums with math.fsum and never loads numpy, so every
    # kernel choice must write the golden bytes.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(Path(aamcba.__file__).resolve().parents[1])
    for coretype in (None, "Prescott", "Haswell"):
        out = tmp_path / (coretype or "unset")
        run_env = env if coretype is None else {**env, "OPENBLAS_CORETYPE": coretype}
        subprocess.run(
            [sys.executable, "-m", "aamcba.cli", "run", "--out", str(out),
             *RUN_CASES["subset"]],
            capture_output=True, env=run_env, check=True,
        )
        assert_matches_golden(GOLDEN / "run" / "subset", read_tree(out))
