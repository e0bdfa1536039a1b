"""The package has no runtime dependencies: every absolute import in
``src/foliations`` names a module of the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "foliations"


def test_every_absolute_import_is_from_the_standard_library():
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, (path.name, name)
                imported.add(top)
    # the walk reached the imports: every module imports from __future__
    assert {"__future__", "fractions", "dataclasses"} <= imported
