"""The python examples in README.md run as written."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run():
    fences = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert fences, "README.md has no python fence"
    test = doctest.DocTestParser().get_doctest(
        "".join(fences), {}, "README.md", str(README), 0)
    report = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.attempted > 0
    assert result.failed == 0, "".join(report)
