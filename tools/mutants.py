"""Mutation testing of one module: each mutant changes one operator or one constant,
and it survives when the chosen tests still pass against it.

    python tools/mutants.py src/indexlab/checker.py --in _Steps --in verify_trace \
        tests/test_prover.py tests/test_cli.py

One mutant per site: a comparison swapped (< and <=, > and >=, == and !=, in and
not in, is and is not), an integer constant plus 1, `and` and `or` swapped, or `+`
and `-` swapped.  `--in NAME` keeps the sites inside the named top-level functions,
classes and assignments, and `--in __main__` those of the `if __name__ == "__main__":`
block (all of the module by default); `--list` prints the sites without running them,
and `--site I` runs site I alone.  A name that selects no top-level statement, or a
site outside 0..N-1 of the N sites selected, is refused with exit 2.

Each mutant is the module rewritten by `ast.unparse` into a copy of the repository
under a temporary directory, where `pytest -x` runs the tests with a fixed
hypothesis seed and an empty example database.  Sites are numbered in the order of
the module's syntax tree, so a run is deterministic.  Each run's address space is
capped at MEMORY bytes; a run that ends on a MemoryError is reported as capped,
counted apart from the killed and the survived mutants.  Standard library only, and
not part of the tier-1 suite: a surviving mutant costs a whole test run.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
         ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.And: ast.Or, ast.Or: ast.And,
         ast.Add: ast.Sub, ast.Sub: ast.Add}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.In: "in", ast.NotIn: "not in", ast.Is: "is",
           ast.IsNot: "is not", ast.And: "and", ast.Or: "or", ast.Add: "+", ast.Sub: "-"}
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
TIMEOUT = 900  # seconds per mutant; a mutant that loops forever counts as killed
# bytes of address space per mutant's test run, which a mutant that allocates without end
# reaches in seconds; the whole suite passes under half of it (512 MiB)
MEMORY = 2**30
# pytest's summary line of a test or a collection that ended on a MemoryError; --tb=no keeps
# the output read to that summary
CAPPED = re.compile(r"^(?:FAILED|ERROR) .+? - MemoryError\b", re.M)
MAIN = ast.dump(ast.parse('__name__ == "__main__"', mode="eval").body)


def named(node: ast.stmt) -> set:
    """The names `--in` selects a top-level statement by: its own, its targets' or __main__."""
    if isinstance(node, ast.If) and ast.dump(node.test) == MAIN:
        return {"__main__"}
    targets = getattr(node, "targets", ())
    return {getattr(node, "name", None), *(getattr(t, "id", None) for t in targets)}


def sites(tree: ast.Module, names: list[str]) -> list[tuple[ast.AST, int, str]]:
    """(node, index of the operator in a comparison, label) of each site, in tree order."""
    scopes = [node for node in tree.body if not names or named(node) & set(names)]
    found = []
    for node in (node for scope in scopes for node in ast.walk(scope)):
        if isinstance(node, ast.Compare):
            found += [(node, k, f"{SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}")
                      for k, op in enumerate(node.ops)]
        elif isinstance(node, (ast.BoolOp, ast.BinOp)) and type(node.op) in SWAPS:
            found.append((node, 0, f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[SWAPS[type(node.op)]]}"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((node, 0, f"{node.value} -> {node.value + 1}"))
    return found


def mutant(source: str, names: list[str], site: int) -> str:
    """The module's source with the one change of this site."""
    tree = ast.parse(source)
    node, k, _ = sites(tree, names)[site]
    if isinstance(node, ast.Compare):
        node.ops[k] = SWAPS[type(node.ops[k])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = SWAPS[type(node.op)]()
    return ast.unparse(tree)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="the module's path, relative to the repository root")
    parser.add_argument("tests", nargs="*", default=["tests"], help="pytest arguments")
    parser.add_argument("--in", dest="names", action="append", default=[])
    parser.add_argument("--site", type=int, action="append", help="run only these sites")
    parser.add_argument("--list", action="store_true", help="print the sites, run nothing")
    parser.add_argument("--workdir", help="where the temporary copy goes")
    args = parser.parse_intermixed_args(argv)
    root, source = Path.cwd(), Path(args.module).read_text()
    tree = ast.parse(source)
    lines, found = source.splitlines(), sites(tree, args.names)
    chosen = args.site if args.site is not None else range(len(found))
    for name in args.names:  # a misspelled name would read as a clean run of no mutant
        if not any(name in named(node) for node in tree.body):
            sys.stderr.write(f"error: --in {name} names no top-level statement of {args.module}\n")
            return 2
    for i in chosen:  # -1 would run the last site
        if not 0 <= i < len(found):
            sys.stderr.write(f"error: --site {i} is outside 0..N-1 for the N = {len(found)} "
                             "sites selected\n")
            return 2

    def where(i: int) -> str:
        node, _, label = found[i]
        return f"{args.module}:{node.lineno} {label}  {lines[node.lineno - 1].strip()}"

    if args.list:  # before any copy of the repository
        for i in chosen:
            print(f"{i:4d} {where(i)}")
        return 0
    counts = dict.fromkeys(("killed", "survived", "capped"), 0)
    with tempfile.TemporaryDirectory(prefix="mutants-", dir=args.workdir) as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(root, copy, ignore=IGNORED)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        for i in chosen:
            (copy / args.module).write_text(mutant(source, args.names, i))
            shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
            try:
                done = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "--tb=no", "-p",
                     "no:cacheprovider", "--hypothesis-seed=0", *args.tests], cwd=copy, env=env,
                    stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=TIMEOUT,
                    preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY)))
                outcome = ("survived" if done.returncode == 0 else
                           "capped" if CAPPED.search(done.stdout) else "killed")
            except subprocess.TimeoutExpired:
                outcome = "killed"
            counts[outcome] += 1
            label = outcome.upper() if outcome == "survived" else outcome
            print(f"{i:4d} {label:8s} {where(i)}", flush=True)
    print(f"{counts['killed']} killed, {counts['survived']} survived, {counts['capped']} capped "
          f"of {len(chosen)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
