"""Module boundaries: no crprime module reaches into another's private names."""

import ast
from pathlib import Path

import crprime

SRC = Path(crprime.__file__).parent


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "crprime"
            for alias in node.names:
                if internal and alias.name.startswith("_"):
                    offenders.append(f"{path.name}: {alias.name} from {'.' * node.level}{node.module or ''}")
    assert offenders == []
