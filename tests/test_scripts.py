import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SURVEY = ROOT / "scripts" / "amply_curvature_survey.py"


def test_amply_curvature_survey_pinned(tmp_path):
    # sha256 of the survey's whole stdout table and of the CSV it writes, so
    # a change to the curvature, the regularity detection or the sign rule
    # it reads cannot move a byte of either unnoticed
    csv_path = tmp_path / "survey.csv"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run(
        [sys.executable, str(SURVEY), "--csv", str(csv_path)],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
        check=True,
    )
    assert result.stderr == b""
    assert (
        hashlib.sha256(result.stdout).hexdigest()
        == "6b44e5f025db3eb76ab18f02f62ab6ab72de19e8c63ba516f4b7e347a6fdcd0b"
    )
    assert (
        hashlib.sha256(csv_path.read_bytes()).hexdigest()
        == "96553b825b4b612f77441b6fa0eb841334d56a2b032815b413edb5918779c603"
    )


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_amply_curvature_survey_runs_blas_on_one_thread():
    # the script loads numpy through curvlab.curvature, not the command line,
    # so it sets the thread count itself; importing it would otherwise leave
    # OpenBLAS's thread pool running beside the main thread
    code = (
        "import os, runpy, sys\nrunpy.run_path(sys.argv[1], run_name='survey')\n"
        "print(len(os.listdir('/proc/self/task')))"
    )
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(name, None)
    result = subprocess.run(
        [sys.executable, "-c", code, str(SURVEY)], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "1\n"
