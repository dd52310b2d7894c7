import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def count_table(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "count_table.py"), *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_count_table_nonzero_only():
    done = count_table("--max-n", "4", "--patterns", "231,312,321", "--nonzero-only")
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert "4,4,4,3             12     12     13  <- differs" in lines
    assert lines[-2:] == ["total              101    101    102",
                          "1 boards with differing counts"]


def test_count_table_rejects_non_ascii_max_n():
    done = count_table("--max-n", "\u0662")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.endswith("error: argument --max-n: invalid int value: '\u0662'\n")


@pytest.mark.parametrize("argv,message", [
    (["--max-n", "0"], "--max-n must be between 1 and 9"),
    # boards_within(30) alone has about 10^17 boards
    (["--max-n", "30"], "--max-n must be between 1 and 9"),
    (["--patterns", "2x1"], "bad pattern '2x1'"),
    (["--patterns", "21,"], "bad pattern ''"),
])
def test_count_table_rejects_bad_options_before_output(argv, message):
    done = count_table(*argv)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.endswith(f"count_table.py: error: {message}\n")
    assert done.stderr.count("error:") == 1
