"""The README's Python example runs as written."""

from pathlib import Path
import re

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_api_example() -> str:
    section = README.read_text().split("## Python API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_python_api_example_runs(capsys):
    namespace = {}
    exec(compile(_python_api_example(), str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    assert namespace["report"].n_subjects == namespace["dataset"].n == 500
