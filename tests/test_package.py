"""The library's two promises, read off its source: pure standard library,
and no floating point."""

import ast
import importlib.util
import os
import re
import shutil
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


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # on a failure hypothesis imports its patching helpers, which warn from a hook teardown;
    # the run must go on to the next test under the project's warning filters
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert False\n\n\n"
        "def test_passes():\n    pass\n")
    config = SRC.parent / "pyproject.toml"
    done = subprocess.run([sys.executable, "-m", "pytest", "-c", str(config), "-p", "no:cacheprovider",
                           "test_two.py"], capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout


def test_the_kernel_keeps_no_state_between_calls():
    # the trusted checker caches nothing: what it accepts depends on its input alone
    path = SRC / "indexlab" / "checker.py"
    assert "functools" not in {name for _, name in absolute_imports(path)}
    for node in nodes(path):
        for decorator in getattr(node, "decorator_list", ()):
            assert "cache" not in ast.unparse(decorator), (node.lineno, node.name)


def test_every_equivalent_mutant_names_a_line_of_its_module():
    # the list of tools/mutants.py's equivalent survivors names each by its line's text;
    # a line that changed or went is a stale entry, to be re-run and updated
    listed, module = [], None
    for row in (SRC.parent / "tools" / "EQUIVALENT_MUTANTS.md").read_text().splitlines():
        if row.startswith("## "):
            module = SRC.parent / row[3:]
        elif row.startswith("- "):
            line, mutation = re.fullmatch(r"- `(.+?)` — (.+?): .+", row).groups()
            listed.append((module.relative_to(SRC.parent), line, mutation))
            assert line in {text.strip() for text in module.read_text().splitlines()}, listed[-1]
    assert listed and len(listed) == len(set(listed))


@pytest.fixture
def mutants(monkeypatch):
    """tools/mutants.py's main, run from the repository root as its usage line shows."""
    spec = importlib.util.spec_from_file_location("mutants", SRC.parent / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.chdir(SRC.parent)
    return module.main


@pytest.mark.parametrize("selection,message", [
    (["--in", "_steps"], "--in _steps names no top-level statement of src/indexlab/checker.py"),
    (["--in", "_Steps", "--in", "verify_trac"],
     "--in verify_trac names no top-level statement of src/indexlab/checker.py"),
    (["--in", "CERTIFICATE_SCHEMA", "--site", "1"],
     "--site 1 is outside 0..N-1 for the N = 1 sites selected"),
    (["--in", "CERTIFICATE_SCHEMA", "--site", "-1"],
     "--site -1 is outside 0..N-1 for the N = 1 sites selected"),
], ids=["misspelled", "one-of-two", "past-the-last", "negative"])
def test_mutants_refuses_a_selection_of_nothing(mutants, capsys, selection, message):
    # a typo would read as a clean run of no mutant, and -1 would run the last site
    assert mutants(["src/indexlab/checker.py", "--list", *selection]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_mutants_lists_without_copying_the_repository(mutants, capsys, monkeypatch):
    def copytree(*args, **kwargs):
        raise AssertionError("--list copied the repository")

    monkeypatch.setattr(shutil, "copytree", copytree)
    assert mutants(["src/indexlab/checker.py", "--list", "--in", "_LEAST"]) == 0
    out, err = capsys.readouterr()
    assert out.count("\n") == 5 and err == ""  # one constant per case shape


def test_mutants_lists_the_one_site_of_a_name(mutants, capsys):
    selection = ["--in", "CERTIFICATE_SCHEMA", "--site", "0"]
    assert mutants(["src/indexlab/checker.py", "--list", *selection]) == 0
    out, err = capsys.readouterr()
    assert out.endswith(" 6 -> 7  CERTIFICATE_SCHEMA = 6\n") and out.count("\n") == 1 and err == ""
