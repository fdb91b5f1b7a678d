"""The library's two promises, read off its source: pure standard library,
and no floating point."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "indexlab").glob("*.py"))


def nodes(path):
    return ast.walk(ast.parse(path.read_text(), str(path)))


def absolute_imports(path):
    """(line, top-level module) of each absolute import in the file."""
    for node in nodes(path):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    for lineno, name in absolute_imports(path):
        assert name in sys.stdlib_module_names, (path.name, lineno, name)


# what `import dataclasses` or `import typing` loads with it; none is needed to run a command
HEAVY = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_neither_dataclasses_nor_typing(path):
    assert [(n, m) for n, m in absolute_imports(path) if m in ("dataclasses", "typing")] == []


def test_starting_the_cli_loads_no_heavy_module():
    # -S: no site, so no .pth file of the environment loads any of them first
    code = f"import sys, indexlab.cli; print([m for m in {HEAVY!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60, check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_uses_no_floating_point(path):
    for node in nodes(path):
        where = (path.name, getattr(node, "lineno", None))
        assert not (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))), where
        assert not (isinstance(node, ast.Name) and node.id == "float"), where
        assert not (isinstance(node, ast.Attribute) and node.attr == "sqrt"
                    and isinstance(node.value, ast.Name) and node.value.id == "math"), where
        assert not (isinstance(node, ast.ImportFrom) and node.module == "math"
                    and any(alias.name == "sqrt" for alias in node.names)), where


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_parses_as_python_3_10(path):
    # pyproject.toml claims requires-python >= 3.10: no newer syntax may creep in
    ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_all_names_are_bound():
    import indexlab

    assert [name for name in indexlab.__all__ if not hasattr(indexlab, name)] == []
    exec("from indexlab import *", {})  # raises AttributeError on an unbound name


def test_sees_every_module():
    assert {p.name for p in MODULES} >= {"exact.py", "symplectic.py", "iteration.py",
                                         "morse.py", "checker.py", "prover.py", "cli.py"}


CHECKER = next(p for p in MODULES if p.name == "checker.py")


def test_the_checker_imports_nothing_from_the_package():
    # so the one file runs on its own, and prover imports from it, never the reverse
    assert [node.lineno for node in nodes(CHECKER)
            if isinstance(node, ast.ImportFrom) and node.level] == []
    assert "indexlab" not in {name for _, name in absolute_imports(CHECKER)}


def test_the_checker_names_no_case_enum():
    names = {getattr(node, attr, None) for node in nodes(CHECKER)
             for attr in ("id", "attr", "name", "asname", "arg")}
    assert "Case" not in names


def test_the_checker_holds_no_prose_and_one_rule_name_per_step():
    # statements and the odd-n equation numbers are presentation, rendered in prover
    names = {getattr(node, attr, None) for node in nodes(CHECKER)
             for attr in ("id", "attr", "name", "asname", "arg")}
    assert names.isdisjoint({"_ODD_RULE", "_rule", "render", "statement"})
    assert "statement" not in {node.value for node in nodes(CHECKER)
                               if isinstance(node, ast.Constant)}


CLI = next(p for p in MODULES if p.name == "cli.py")


def test_verify_reaches_nothing_in_prover():
    # cmd_verify, and every function of cli it calls, directly or through another,
    # names checker and never prover: the subcommand runs the kernel alone
    functions = {node.name: node for node in ast.parse(CLI.read_text()).body
                 if isinstance(node, ast.FunctionDef)}
    reached, todo, names = set(), ["cmd_verify"], set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            called = {node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)}
            names |= called
            todo += called & functions.keys()
    assert reached == {"cmd_verify", "_load_json", "_emit"}
    assert "checker" in names and "prover" not in names
