"""The demos and the README import only names the package still has.

Running the demos takes seconds each, so the test suite does not run
them; parsing their imports catches a deleted or renamed public name.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _sources():
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text()
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        yield "README.md", block


def test_demo_and_readme_imports_resolve():
    names = 0
    for where, source in _sources():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "tidalbundle"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (
                        f"{where}: {node.module}.{alias.name}")
                    names += 1
    assert names > 0
