import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_count_table_nonzero_only():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "count_table.py"),
         "--max-n", "4", "--patterns", "231,312,321", "--nonzero-only"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert "4,4,4,3             12     12     13  <- differs" in lines
    assert lines[-2:] == ["total              101    101    102",
                          "1 boards with differing counts"]
