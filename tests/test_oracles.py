import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def test_oracles_do_not_import_the_package():
    # The oracles cross-check coposim, so they must not share its code.
    imported = []
    for node in ast.walk(ast.parse(ORACLES.read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    offending = [name for name in imported if name.split(".")[0] == "coposim"]
    assert not offending, f"tests/oracles.py imports {offending}"
