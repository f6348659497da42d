"""Import hygiene of the package: no module imports a name it does not use,
and the config module loads without the emulator stack."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import gtncal

SRC = Path(gtncal.__file__).parent
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_has_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_config_loads_without_the_emulator_stack():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import gtncal.pipeline.config; "
        "print(sorted(m for m in ('gtncal.emulator', 'scipy.optimize') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC.parent)],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out.strip() == "[]"
