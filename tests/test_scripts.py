import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_amply_curvature_survey_pinned(tmp_path):
    # sha256 of the survey's whole stdout table and of the CSV it writes, so
    # a change to the curvature, the regularity detection or the sign rule
    # it reads cannot move a byte of either unnoticed
    csv_path = tmp_path / "survey.csv"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "amply_curvature_survey.py"), "--csv", str(csv_path)],
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
