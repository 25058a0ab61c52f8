"""tools/paired_sweep.py, run on this tree against itself."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_tree_against_itself_differs_nowhere():
    src = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "paired_sweep.py"), src, src,
         "--universes", "8", "--rounds", "3"],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    ratio = re.search(r"^ratio change/parent: (\S+) \[bootstrap 95% (\S+), (\S+)\]", done.stdout, re.M)
    assert ratio, done.stdout
    assert 0.5 < float(ratio[1]) < 2.0
    assert float(ratio[2]) <= float(ratio[1]) <= float(ratio[3])
    assert re.search(r"^differing outputs: 0 of 8 universes", done.stdout, re.M), done.stdout
    assert re.search(r"^parent: median \S+ µs \[quartiles", done.stdout, re.M), done.stdout
