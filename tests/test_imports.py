"""Import hygiene of the package: no module imports a name it does not use,
every public top-level name has a reader in the program, and the config
module loads without the emulator stack."""

import ast
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import gtncal

SRC = Path(gtncal.__file__).parent
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
BENCHMARKS = SRC.parents[1] / "benchmarks"

#: Public names kept without a reader in src/ or benchmarks/, each for a reason.
UNREAD_BY_DESIGN = {
    "gtn_yield": "oracle of acceptance criteria 1-2 and the material tests",
    "voce_flow_stress": "oracle of acceptance criteria 1-2 and the material tests",
    "effective_void_fraction": "oracle of acceptance criteria 1-2 and the material tests",
    "kernel_cross": "dense reference of the GP kernel tests",
    "SummedLogLikelihood": "the joint posterior of ROADMAP direction 3",
}


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


def _public_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return {name: node for name, node in defs.items() if not name.startswith("_")}


def _reads(tree: ast.Module) -> dict[str, set[int]]:
    """Lines on which each name is read: as a plain name, an attribute, an
    imported name, or a string (the tracer installs functions by name)."""
    reads = defaultdict(set)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            reads[node.id].add(node.lineno)
        elif isinstance(node, ast.Attribute):
            reads[node.attr].add(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                reads[alias.name].add(node.lineno)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads[node.value].add(node.lineno)
    return reads


def test_every_public_name_has_a_reader():
    bench = [p for p in BENCHMARKS.rglob("*.py")
             if not p.relative_to(BENCHMARKS).parts[0].startswith(".")]
    trees = {path: ast.parse(path.read_text()) for path in [*SRC.rglob("*.py"), *bench]}
    reads = {path: _reads(tree) for path, tree in trees.items()}
    unread = {}
    for path in SRC.rglob("*.py"):
        for name, node in _public_definitions(trees[path]).items():
            own = set(range(node.lineno, node.end_lineno + 1))
            if not any(lines.get(name, set()) - (own if other == path else set())
                       for other, lines in reads.items()):
                unread[name] = str(path.relative_to(SRC))
    assert sorted(unread) == sorted(UNREAD_BY_DESIGN), unread


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
