"""Every ``python`` block of README runs as a doctest, and every command
line example runs."""

import doctest
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def test_every_python_block_of_the_readme_runs_as_a_doctest():
    """The blocks share one namespace, in file order, with ``...`` in an
    output matching any text."""
    text = README.read_text(encoding="utf-8")
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    report, namespace = [], {}
    blocks = list(BLOCK.finditer(text))
    assert blocks
    for block in blocks:
        line = text.count("\n", 0, block.start(1))
        test = parser.get_doctest(block[1], namespace, "README.md", str(README), line)
        assert test.examples, f"README.md line {line}: a python block with no >>> line"
        runner.run(test, out=report.append, clear_globs=False)
    assert runner.summarize(verbose=False).failed == 0, "".join(report)


def command_line_section(text: str) -> str:
    start = text.index("## Command line")
    return text[start : text.index("\n## ", start + 1)]


def run_powerindex(line: str, cwd: Path) -> subprocess.CompletedProcess:
    argv = shlex.split(line)
    assert argv[0] == "powerindex", line
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-m", "powerindex", *argv[1:]],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


def test_every_command_line_example_of_the_readme_runs(tmp_path):
    """Each ``powerindex`` line of the Command line section's first shell
    block runs, in file order, on a 20-name universe, and exits 0; then
    the ``solve`` sample prints what README shows, on the two names of the
    quick start."""
    section = command_line_section(README.read_text(encoding="utf-8"))
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL)[1]
    lines = [
        line for line in block.replace("\\\n", " ").splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    assert len(lines) == 4
    caps = [100.0 / (i + 1) for i in range(20)]
    total = sum(caps)
    (tmp_path / "universe.csv").write_text(
        "id,market_cap\n" + "".join(f"N{i},{c!r}\n" for i, c in enumerate(caps))
    )
    (tmp_path / "before.csv").write_text(
        "id,weight\n" + "".join(f"N{i},{c / total!r}\n" for i, c in enumerate(caps))
    )
    for line in lines:
        done = run_powerindex(line, tmp_path)
        assert done.returncode == 0, (line, done.stdout, done.stderr)

    sample = re.search(r"`(powerindex solve [^`]*)` prints:\n\n```\n(.*?)\n```", section)
    (tmp_path / "two.csv").write_text("id,market_cap\nBIG,70\nSMALL,30\n")
    done = run_powerindex(sample[1], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == sample[2] + "\n"
