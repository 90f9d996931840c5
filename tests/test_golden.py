import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_golden_outputs_unchanged():
    # Compare mode only: the check reads golden.json and the fixed model.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "golden.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
