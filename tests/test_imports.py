"""Static checks of the package's imports: none unused, every export resolves."""

import ast
import os
import pathlib
import subprocess
import sys

import torgrowth

SRC = pathlib.Path(torgrowth.__file__).parent


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's imports (not `__future__`), with line numbers."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside string annotations."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if a is not None and a.annotation is not None:
                    annotations.append(a.annotation)
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    trees = [tree]
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                trees.append(ast.parse(sub.value, mode="eval"))
    return {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used(tree)
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in _imported(tree).items() if name not in used]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_every_export_resolves():
    missing = [name for name in torgrowth.__all__ if not hasattr(torgrowth, name)]
    assert not missing
    assert len(set(torgrowth.__all__)) == len(torgrowth.__all__)


def test_import_leaves_out_multiprocessing():
    # only growth runs with jobs > 1 start a process pool
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import torgrowth, sys; print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert out.strip() == "False"
