import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"


@pytest.mark.skipif(not RUN.is_file(), reason="no perfbench/ in this checkout")
def test_bench_self_check_catches_corrupted_hulls():
    # the self-check corrupts cli.fast_hull and experiments.convex_hull by
    # name; if either binding moves, the bench's output check no longer
    # sees the corruption and this fails
    proc = subprocess.run(
        [sys.executable, str(RUN), "--self-check"], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdicts = [line for line in proc.stdout.splitlines() if line.startswith("self-check ")]
    assert len(verdicts) == 4 and all(line.endswith(" ok") for line in verdicts), proc.stdout
