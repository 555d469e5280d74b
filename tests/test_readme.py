"""README's library quick start runs as written, so renaming a public name
that it uses fails the suite."""

import pathlib
import re


def test_library_quick_start_runs():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
