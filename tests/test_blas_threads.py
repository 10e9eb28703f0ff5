"""``import repro`` caps OpenBLAS at one thread unless the caller chose."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("given, expected", [(None, "1"), ("3", "3")])
def test_import_sets_openblas_threads_default(given, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    env["PYTHONPATH"] = str(SRC)
    out = subprocess.run(
        [sys.executable, "-c",
         "import os, repro; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == expected
