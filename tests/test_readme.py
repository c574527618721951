"""The README's Library section runs as written and names modules that exist."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Library\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end != -1 else len(text)]


def test_library_example_runs():
    section = _library_section()
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_library_module_list_imports():
    names = set(re.findall(r"`(acdlab\.[a-z_]+)`", _library_section()))
    assert names
    for name in sorted(names):
        importlib.import_module(name)
