"""Every ``python`` block of README runs as a doctest."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
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
