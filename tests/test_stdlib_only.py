"""The plovkit runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import plovkit


def test_package_imports_only_the_standard_library():
    sources = sorted(Path(plovkit.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert foreign == []
