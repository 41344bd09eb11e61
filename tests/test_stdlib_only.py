"""The runtime stays pure standard library: every absolute import in the
package names a stdlib module or the package itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hatguess"


def absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    allowed = sys.stdlib_module_names | {"hatguess"}
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 4  # core, strategies, analysis, cli at least
    foreign = {
        f"{path.name}: {name}"
        for path in sources
        for name in absolute_imports(ast.parse(path.read_text(), filename=str(path)))
        if name.split(".")[0] not in allowed
    }
    assert not foreign, sorted(foreign)
