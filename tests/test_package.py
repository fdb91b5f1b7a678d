"""The library's two promises, read off its source: pure standard library,
and no floating point."""

import ast
import builtins
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


def test_three_names_stay_in_their_modules_but_leave_the_package():
    import indexlab
    from indexlab import exact, morse

    assert len(indexlab.__all__) == 13
    for module, name in ((exact, "floor_scaled"), (morse, "MorseTable"),
                         (morse, "check_morse_inequalities")):
        assert hasattr(module, name) and not hasattr(indexlab, name), name


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_holds_prose_or_a_second_rule_name(path):
    # a step holds values under its even-n rule name; no command reads prose rebuilt from
    # them, or the odd-n equation numbers, which README's table gives
    names = {getattr(node, attr, None) for node in nodes(path)
             for attr in ("id", "attr", "name", "asname", "arg")}
    assert names.isdisjoint({"_ODD_RULE", "_TEXT", "_rule", "render", "vacuity", "statement"})
    assert "statement" not in {node.value for node in nodes(path)
                               if isinstance(node, ast.Constant)}


CLI = next(p for p in MODULES if p.name == "cli.py")


def precision_cuts(path):
    """(line, spec) of each f-string format spec of the module that cuts its value to a
    precision, such as `!r:.40` or `:.150`, outside `checker.quote`."""
    tree = ast.parse(path.read_text(), str(path))
    quote = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             and path.name == "checker.py" and fn.name == "quote" for node in ast.walk(fn)}
    for node in ast.walk(tree):
        if isinstance(node, ast.FormattedValue) and node.format_spec and id(node) not in quote:
            spec = "".join(part.value if isinstance(part, ast.Constant) else "{}"
                           for part in node.format_spec.values)
            if re.search(r"\.[0-9{]", spec):
                yield node.lineno, spec


def test_only_quote_cuts_a_quoted_value():
    # one quoting rule: every refusal cuts an outside value with checker.quote, which
    # marks each cut, at 40 characters or at the one document width
    cuts = [(path.name, *cut) for path in MODULES for cut in precision_cuts(path)]
    assert not cuts, f"{len(cuts)} precision cuts outside checker.quote: {cuts}"


def exception_classes():
    """module.name of each class that the package defines and that derives from an exception,
    a builtin one or one of the package's, whether by name or by attribute."""
    bases = {(path.stem, node.name): {getattr(base, "id", getattr(base, "attr", None))
                                      for base in node.bases}
             for path in MODULES for node in nodes(path) if isinstance(node, ast.ClassDef)}
    errors = {name for name, value in vars(builtins).items()
              if isinstance(value, type) and issubclass(value, BaseException)}
    while more := {name for (_, name), of in bases.items() if of & errors} - errors:
        errors |= more
    return sorted(f"{module}.{name}" for (module, name), of in bases.items() if of & errors)


def test_the_one_exception_class_is_trace_error():
    # two exits, two types: a ValueError is an input error (exit 2), and its subclass
    # TraceError a certificate the kernel refuses, which verify alone tells apart (exit 1)
    import indexlab

    found = exception_classes()
    assert found == ["checker.TraceError"], f"{len(found)} exception classes: {found}"
    assert not hasattr(indexlab, "FieldMismatchError")


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


def test_the_cli_reaches_other_layers_only_through_their_public_names():
    # a name that starts with "_" is its own layer's business: the CLI neither imports
    # one from the package nor reads one off a module of it
    modules, private = set(), []
    for node in nodes(CLI):
        if isinstance(node, ast.Import):
            modules |= {(alias.asname or alias.name).split(".")[0] for alias in node.names
                        if alias.name.split(".")[0] == "indexlab"}
        elif isinstance(node, ast.ImportFrom) and (node.level
                                                   or node.module.split(".")[0] == "indexlab"):
            private += [(node.lineno, alias.name) for alias in node.names
                        if alias.name.startswith("_")]
            if node.module in (None, "indexlab"):  # from . import checker binds a module
                modules |= {alias.asname or alias.name for alias in node.names}
    for node in nodes(CLI):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                private.append((node.lineno, ast.unparse(node)))
    assert "checker" in modules and private == []


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


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", SRC.parent / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def mutants(monkeypatch):
    """tools/mutants.py's main, run from the repository root as its usage line shows."""
    monkeypatch.chdir(SRC.parent)
    return load_mutants().main


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


def test_mutants_caps_the_memory_of_a_mutant_and_reports_a_run_that_ends_on_it(
        tmp_path, monkeypatch, capsys):
    # one mutant's test run reached 6 GB within two minutes; the test module of this repository
    # records the limit its process sees and raises the MemoryError a run on the cap ends with
    repo, limit = tmp_path / "repo", tmp_path / "limit"
    (repo / "src").mkdir(parents=True)
    (repo / "tests").mkdir()
    (repo / "src" / "m.py").write_text("X = 1\n")
    (repo / "tests" / "test_limit.py").write_text(
        "import resource\nfrom pathlib import Path\n\n\ndef test_limit():\n"
        f"    Path({str(limit)!r}).write_text(repr(resource.getrlimit(resource.RLIMIT_AS)))\n"
        "    raise MemoryError\n")
    tool = load_mutants()
    monkeypatch.chdir(repo)
    assert tool.main(["src/m.py", "tests/test_limit.py", "--workdir", str(tmp_path)]) == 0
    assert limit.read_text() == repr((tool.MEMORY, tool.MEMORY))
    out, err = capsys.readouterr()
    assert (out, err) == ("   0 capped   src/m.py:1 1 -> 2  X = 1\n"
                          "0 killed, 0 survived, 1 capped of 1\n", "")


def test_mutants_spares_the_test_that_reads_the_mutated_line(tmp_path, monkeypatch, capsys):
    # that test finds each listed equivalent mutant's line in its module, so it fails on every
    # mutant of a listed line: here it always fails, and the mutant must still survive
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "tests").mkdir()
    # a pytest table makes the copy's root the rootdir, so node ids read as in this repository
    (repo / "pyproject.toml").write_text("[tool.pytest.ini_options]\n")
    (repo / "src" / "m.py").write_text("X = 1\n")
    tool = load_mutants()
    path, name = tool.SELF_READING.split("::")
    (repo / path).write_text(f"def {name}():\n    assert False\n\n\ndef test_passes():\n    pass\n")
    monkeypatch.chdir(repo)
    assert tool.main(["src/m.py", path, "--workdir", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == ("   0 SURVIVED src/m.py:1 1 -> 2  X = 1\n"
                          "0 killed, 1 survived, 0 capped of 1\n", "")


def test_only_the_checker_names_the_least_n_of_each_shape():
    # the kernel decides vacuity once, in _Steps, and the replay reads the builder's answer
    named = [path.name for path in MODULES if "_LEAST" in {
        getattr(node, attr, None) for node in nodes(path) for attr in ("id", "attr", "name")}]
    assert named == ["checker.py"]


def test_only_the_step_builder_makes_a_trace():
    # every trace, vacuous ones too, is closed by checker._Steps.close: a Trace made
    # anywhere else in the package would pass by the builder's refusals
    made, allowed = [], set()
    for path in MODULES:
        tree = ast.parse(path.read_text(), str(path))
        if path == CHECKER:
            [steps] = [node for node in tree.body if getattr(node, "name", None) == "_Steps"]
            [close] = [node for node in steps.body if getattr(node, "name", None) == "close"]
            allowed = {id(node) for node in ast.walk(close)}
        made += [(path.name, node.lineno, id(node) in allowed) for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and "Trace" in ast.unparse(node.func).split(".")]
    assert [(name, line) for name, line, inside in made if not inside] == []
    assert any(inside for *_, inside in made)


def test_ci_runs_the_tier_1_command_and_the_smoke_steps():
    # the workflow's tier-1 step runs ROADMAP's command verbatim, and its smoke job needs only
    # the standard library: no pip step, the demos, prove, verify and the checker alone
    root = SRC.parent
    [command] = re.findall(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (root / "ROADMAP.md").read_text())
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text()
    tier_1, smoke = workflow.split("\n  smoke:\n")
    assert f"      - run: {command}\n" in tier_1
    assert "pip" not in smoke
    for step in ("demos/*.py", "prove --n 12 > cert.json", "verify cert.json",
                 "python -I src/indexlab/checker.py cert.json"):
        assert step in smoke
    # n = 2, 3 and 4, whose certificates hold the vacuous traces of NCG2 to NCG4
    for n in (2, 3, 4):
        for step in (f"prove --n {n} > cert{n}.json", f"verify cert{n}.json",
                     f"python -I src/indexlab/checker.py cert{n}.json"):
            assert step in smoke
