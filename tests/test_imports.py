"""Import hygiene of the package: no module of it, its tests or its tools
imports a name it does not use, the subpackages import each other only in
the layering's direction, every public top-level name has a reader in the
program, every defaulted parameter is set to another value somewhere and
left at its default somewhere, and the config module loads without the
emulator stack."""

import ast
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import gtncal

SRC = Path(gtncal.__file__).parent
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
ROOT = SRC.parents[1]
BENCHMARKS = ROOT / "benchmarks"
BENCH_FILES = [p for p in BENCHMARKS.rglob("*.py")
               if not p.relative_to(BENCHMARKS).parts[0].startswith(".")]
TOOL_FILES = sorted((ROOT / "tools").rglob("*.py"))
TEST_FILES = sorted((ROOT / "tests").rglob("*.py"))

#: Public names kept without a reader in src/ or benchmarks/, each for a reason.
UNREAD_BY_DESIGN = {
    "gtn_yield": "oracle of acceptance criteria 1-2 and the material tests",
    "voce_flow_stress": "oracle of acceptance criteria 1-2 and the material tests",
    "effective_void_fraction": "oracle of acceptance criteria 1-2 and the material tests",
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


@pytest.mark.parametrize(
    "path", [*MODULES, *TEST_FILES, *TOOL_FILES],
    ids=lambda p: str(p.relative_to(SRC if p.is_relative_to(SRC) else ROOT)),
)
def test_module_has_no_unused_imports(path):
    """Over the package, its tests and its tools: an import nothing reads is
    dead weight, and in a test it hides which names the test exercises."""
    assert _unused_imports(ast.parse(path.read_text())) == []


#: The gtncal subpackages and modules each subpackage must not import from:
#: features and emulator sit below bayes, which sits below pipeline and cli.
LAYER_FORBIDS = {
    "features": {"bayes", "emulator", "pipeline", "cli"},
    "bayes": {"features", "pipeline", "cli"},
    "emulator": {"bayes", "features", "pipeline", "cli"},
}


def _imported_modules(path: Path) -> set[str]:
    """Absolute names of what ``path`` imports, relative imports resolved;
    ``from a import b`` counts as importing both ``a`` and ``a.b``."""
    package = ["gtncal", *path.relative_to(SRC).parent.parts]
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("layer", sorted(LAYER_FORBIDS))
def test_subpackage_imports_follow_the_layering(layer):
    forbidden = [["gtncal", other] for other in LAYER_FORBIDS[layer]]
    crossings = {}
    for path in sorted((SRC / layer).rglob("*.py")):
        hits = sorted(n for n in _imported_modules(path) if n.split(".")[:2] in forbidden)
        if hits:
            crossings[str(path.relative_to(SRC))] = hits
    assert crossings == {}


#: The calls that spell or parse an artifact; only gtncal/formats.py makes them.
FORMAT_CALLS = {"savetxt", "loadtxt", "dumps"}


def test_only_the_formats_module_writes_the_artifact_format():
    spellers = {}
    for path in MODULES:
        if path.name == "formats.py":
            continue
        tree = ast.parse(path.read_text())
        names = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                  for a in n.names}
        if names & FORMAT_CALLS:
            spellers[str(path.relative_to(SRC))] = sorted(names & FORMAT_CALLS)
    assert spellers == {}


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
    trees = {path: ast.parse(path.read_text()) for path in [*SRC.rglob("*.py"), *BENCH_FILES]}
    reads = {path: _reads(tree) for path, tree in trees.items()}
    unread = {}
    for path in SRC.rglob("*.py"):
        for name, node in _public_definitions(trees[path]).items():
            own = set(range(node.lineno, node.end_lineno + 1))
            if not any(lines.get(name, set()) - (own if other == path else set())
                       for other, lines in reads.items()):
                unread[name] = str(path.relative_to(SRC))
    assert sorted(unread) == sorted(UNREAD_BY_DESIGN), unread


#: Defaulted parameters that no call in src/ or benchmarks/ sets, each for a reason.
ONE_VALUE_BY_DESIGN = {
    "main(argv)": "the CLI entry point; tests and tools pass argv",
    "run_sequence(persist)": "a ROADMAP small item; it leaves with the next benchmark change",
}


def _defaulted_parameters():
    """(class or None, function name, parameter, position after self or
    None, default's source) for every defaulted parameter of a module-level
    function or of a method of a module-level class in src/."""
    funcs = []
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text())
        funcs += [(None, node, 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in node.decorator_list)
                    funcs.append((cls.name, node, 0 if static else 1))
    for cls, node, skip in funcs:
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        first = len(positional) - len(args.defaults)
        for i, (arg, default) in enumerate(zip(positional[first:], args.defaults)):
            yield cls, node.name, arg.arg, first + i - skip, ast.unparse(default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield cls, node.name, arg.arg, None, ast.unparse(default)


def _parameter_key(cls: str | None, name: str, param: str) -> str:
    return f"{cls}.{name}({param})" if cls else f"{name}({param})"


def _calls_by_name(trees, classes: set[str]) -> dict[tuple, list[ast.Call]]:
    """Calls keyed (class, name) when written ``Class.name(...)`` for a
    class in ``classes``, and (None, name) otherwise."""
    calls = defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                owner = None
                if isinstance(func, ast.Attribute):
                    if isinstance(func.value, ast.Name) and func.value.id in classes:
                        owner = func.value.id
                    name = func.attr
                else:
                    name = getattr(func, "id", None)
                calls[owner, name].append(node)
    return calls


def _calls_to(calls, cls: str | None, name: str) -> list[ast.Call]:
    """The calls that may reach ``cls.name`` (a module-level function when
    ``cls`` is None): every call by bare or attribute name, except those
    written as another class's method."""
    return calls[None, name] + (calls[cls, name] if cls else [])


def _program_calls(files) -> dict[tuple, list[ast.Call]]:
    """``_calls_by_name`` over ``files``, with src/'s module-level classes."""
    classes = {node.name for path in SRC.rglob("*.py")
               for node in ast.parse(path.read_text()).body if isinstance(node, ast.ClassDef)}
    return _calls_by_name([ast.parse(p.read_text()) for p in files], classes)


def _values_passed(call: ast.Call, param: str, position: int | None) -> list[str]:
    values = [ast.unparse(k.value) for k in call.keywords if k.arg == param]
    positional = call.args
    starred = [i for i, a in enumerate(positional) if isinstance(a, ast.Starred)]
    if starred:
        positional = positional[: starred[0]]
    if position is not None and position < len(positional):
        values.append(ast.unparse(positional[position]))
    return values


def _leaves_unset(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether ``call`` certainly takes ``param``'s default: it passes the
    parameter neither by keyword nor by position, and unpacks no ``*args``
    or ``**kwargs`` that could."""
    if any(k.arg in (param, None) for k in call.keywords):
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):
        return False
    return position is None or position >= len(call.args)


def test_every_default_has_a_second_value():
    """A defaulted parameter that every caller leaves at its default is a
    constant: some call in src/ or benchmarks/, matched by function name
    (and by class when written ``Class.method(...)``), must pass it a value
    whose source differs from the default's."""
    calls = _program_calls([*SRC.rglob("*.py"), *BENCH_FILES])
    one_value = set()
    for cls, name, param, position, default in _defaulted_parameters():
        if not any(value != default
                   for call in _calls_to(calls, cls, name)
                   for value in _values_passed(call, param, position)):
            one_value.add(_parameter_key(cls, name, param))
    assert sorted(one_value) == sorted(ONE_VALUE_BY_DESIGN), sorted(one_value)


def test_every_default_is_taken_by_the_program():
    """A default that no call in src/, benchmarks/ or tools/ takes, by
    leaving the parameter unset or by passing the default's own source text,
    restates what every caller passes: the config dataclasses are the one
    home of such a value, and the parameter is required."""
    calls = _program_calls([*SRC.rglob("*.py"), *BENCH_FILES, *TOOL_FILES])
    never_taken = [
        _parameter_key(cls, name, param)
        for cls, name, param, position, default in _defaulted_parameters()
        if not any(_leaves_unset(call, param, position)
                   or default in _values_passed(call, param, position)
                   for call in _calls_to(calls, cls, name))
    ]
    assert not never_taken, sorted(never_taken)


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


def _scipy_solvers_after(code: str, *argv: str) -> list[str]:
    """Which of scipy.linalg and scipy.optimize a fresh interpreter has
    loaded after running ``code``; ``sys.argv[2:]`` are ``argv``."""
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        f"{code}\n"
        "print(sorted(m for m in ('scipy.linalg', 'scipy.optimize') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(SRC.parent), *argv],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return ast.literal_eval(out.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "code",
    ["import gtncal.cli; gtncal.cli.build_parser()", "import gtncal.pipeline.inference"],
    ids=["cli", "inference"],
)
def test_cli_and_inference_load_without_scipy_solvers(code):
    assert _scipy_solvers_after(code) == []


def test_predicting_from_a_saved_bundle_loads_linalg_but_not_the_optimizer(tmp_path):
    from gtncal.emulator.bundle import SurrogateBundle, save_bundle
    from gtncal.emulator.gp import TrainedGp
    from gtncal.emulator.kernel import ArdHyperparams

    rng = np.random.default_rng(0)
    x = rng.uniform(size=(12, 2))
    gp = TrainedGp.from_hyperparams(x, np.sin(x.sum(axis=1)), ArdHyperparams(1.0, (0.5, 0.5), 1e-4))
    box = np.array([[0.0, 1.0], [0.0, 1.0]])
    bundle = SurrogateBundle(
        "FD", box, [gp], ["alpha_1"], seed=0, train_indices=np.arange(12), test_indices=np.arange(0)
    )
    save_bundle(tmp_path, bundle)
    code = (
        "from gtncal.emulator.bundle import load_bundle\n"
        "load_bundle(sys.argv[2]).predict([[0.2, 0.7]])"
    )
    assert _scipy_solvers_after(code, str(tmp_path)) == ["scipy.linalg"]
