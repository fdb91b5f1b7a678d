"""Command-line front end: exact tables and proof certificates as JSON.

Exit codes: 0 = success (all checks hold / all traces closed), 1 = a checked
inequality, identity or certificate failed, 2 = input or validation error,
a failed write to stdout among them.  All exact numbers serialize in the
"(a+b*sqrt(D))/c" form, never as floats.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import sys
from collections.abc import Iterable, Iterator, Sequence

from . import checker, iteration, morse, prover
from .checker import quote
from .exact import ExactReal


_compact = functools.partial(json.dumps, separators=(",", ":"))
_dumps = functools.partial(_compact, sort_keys=True)


def _emit(json_path: str | None, pieces: Iterable[str]) -> None:
    """Write the text pieces as they come, then one newline, to the file or stdout."""
    if json_path:
        try:
            with open(json_path, "w") as fh:
                fh.writelines(pieces)
                fh.write("\n")
        except OSError as e:
            raise ValueError(f"cannot write {quote(json_path, str, True)}: {quote(e, str)}") from e
    else:
        sys.stdout.writelines(pieces)
        sys.stdout.write("\n")


def _joined(items: Iterable[str]) -> Iterator[str]:
    """The text of ",".join(items), made 256 items at a time: a list of any
    length costs one block of memory, and a short list is one write."""
    items, lead = iter(items), ""
    while block := ",".join(itertools.islice(items, 256)):
        yield lead + block
        lead = ","


def _int_list(values: Sequence[int]) -> Iterator[str]:
    """The text of _compact(list(values)), made from slices of 256 numbers: a
    list of any length costs one block's text, not the whole string."""
    yield "["
    for start in range(0, len(values), 256):
        yield ("," if start else "") + _compact(values[start:start + 256])[1:-1]
    yield "]"


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: deep nesting
        raise ValueError(f"cannot read {quote(path, str, True)}: {quote(exc, str)}") from exc


def _parse_model(obj, label: str) -> iteration.GeodesicModel:
    try:
        return iteration.model_from_json(obj)
    except ValueError as exc:  # each reader names the field it refuses
        raise ValueError(f"{label}: {exc}") from exc


def _load_models(path: str) -> list[iteration.GeodesicModel]:
    """Models of one dimension n, at least one, from a JSON list or {"models": [...]}."""
    payload = _load_json(path)
    entries = payload.get("models") if isinstance(payload, dict) else payload
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{quote(path, str, True)}: expected a non-empty list of models")
    models = [_parse_model(obj, f"model #{idx}") for idx, obj in enumerate(entries)]
    for idx, g in enumerate(models):
        if g.n != models[0].n:
            raise ValueError(f"model #{idx}: n = {g.n}, but model #0 has n = {models[0].n}")
    return models


def _iterate_rows(g: iteration.GeodesicModel, mmax: int, as_json: bool) -> Iterator:
    """The rows m = 1..mmax of the iterate table, each made when it is asked for:
    (m, i, nu, epsilon, k0) tuples, nu = 0 as the metric is bumpy, or the text
    _dumps would give for each row's dict, with the keys in sorted order."""
    for m in range(1, mmax + 1):
        i_m = iteration.index_of_iterate(g, m)
        eps, k0 = iteration.critical_type(g, m)
        yield (f'{{"epsilon":{eps},"i":{i_m},"k0":{k0},"m":{m},"nu":0}}' if as_json
               else (m, i_m, 0, eps, k0))


def _fits(value: int | ExactReal) -> bool:
    """Whether str() writes the value, which it refuses for an int, or an ExactReal holding one,
    of more than sys.get_int_max_str_digits() digits."""
    try:
        return bool(str(value))
    except ValueError:
        return False


def _too_long(label: str, g: iteration.GeodesicModel, rest: int | ExactReal,
              other: str) -> ValueError:
    """The refusal of an output that would hold an integer too long to write.  It names the
    model's p where the output's value with p's part taken out, `rest`, fits, and otherwise
    `other`, the value that outgrows the limit whatever p is."""
    what = f"{label}: p = {quote(g.p)}" if _fits(rest) else other
    return ValueError(f"{what}: the output would hold an integer of more than "
                      f"{sys.get_int_max_str_digits()} digits")


def cmd_iterate(args) -> int:
    g = _parse_model(_load_json(args.model), "model")
    # no row's index exceeds the bound; where the bound is too long to write, the last row's index,
    # the largest for a slope >= 0, is checked, so that no row is written before a refusal
    bound = (abs(g.slope) + 2 * len(g.rotation_numbers)) * args.mmax + g.const
    if not _fits(bound) and not _fits(last := iteration.index_of_iterate(g, args.mmax)):
        raise _too_long("model", g, last - g.slope * args.mmax, f"--mmax {quote(args.mmax)}")
    # each row is written as it is made, so memory does not grow with --mmax
    if args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(("m", "i", "nu", "epsilon", "k0"))
        writer.writerows(_iterate_rows(g, args.mmax, False))
    else:
        try:
            head = '{"case":"%s","mean_index":"%s","period":%d,"rows":[' % (
                g.case, iteration.mean_index(g).serialize(), iteration.analytic_period(g))
        except ValueError:  # a mean index too long to write; slope + 2*sum rho without the slope
            raise _too_long("model", g, iteration.mean_index(g) + -g.slope,
                            "model: mean index") from None
        _emit(args.json, itertools.chain((head,), _joined(_iterate_rows(g, args.mmax, True)),
                                         ("]}",)))
    return 0


def cmd_betti(args) -> int:
    b = morse.betti_values(args.n, args.qmax)
    if args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(["q", "b_q"])
        writer.writerows(enumerate(b))
    else:  # the text of _dumps({"n": n, "b": b})
        _emit(args.json, itertools.chain(('{"b":',), _int_list(b), (',"n":%d}' % args.n,)))
    return 0


def cmd_morse_check(args) -> int:
    models = _load_models(args.models)
    M = morse.morse_numbers(models, args.horizon)
    b = morse.betti_values(models[0].n, args.horizon)
    failures = morse.inequality_failures(M, b, args.horizon)
    first = next(failures, None)
    # the text _dumps would give for the dict, with the keys in sorted order; M, b
    # and the failures are written 256 at a time, the failures formatted as they
    # are found, so only M and b themselves grow with the horizon
    rows = itertools.chain((first,) if first else (), failures)
    _emit(args.json, itertools.chain(
        ('{"M":',), _int_list(M.values), (',"b":',), _int_list(b),
        (',"horizon":%d,"violations":[' % args.horizon,),
        _joined('{"kind":"%s","lhs":%d,"q":%d,"rhs":%d}' % (kind, lhs, q, rhs)
                for q, kind, lhs, rhs in rows),
        ("]}",)))
    return 0 if first is None else 1


def cmd_identity(args) -> int:
    models = _load_models(args.models)
    n = models[0].n
    lhs = morse.mean_index_identity_lhs(models)
    rhs = ExactReal.from_fraction(morse.euler_limit(n))
    holds = lhs == rhs
    try:
        text = _dumps({"n": n, "lhs": lhs.serialize(), "rhs": rhs.serialize(), "holds": holds})
    except ValueError:  # a sum too long to write: the model of the longest p is named, unless
        # the sum of the inverse mean indices without their slopes is too long as well
        idx = max(range(len(models)), key=lambda i: abs(models[i].p))
        rest = sum((iteration.mean_index(g) + -g.slope).inverse() for g in models
                   if g.rotation_numbers)
        raise _too_long(f"model #{idx}", models[idx], rest, "lhs, the sum over the models") from None
    _emit(args.json, (text,))
    return 0 if holds else 1


def cmd_prove(args) -> int:
    text = prover.certificate_json(args.n)
    checker.verify_certificate(json.loads(text))  # the bytes written are the bytes checked
    _emit(args.json, (text,))
    return 0


def cmd_verify(args) -> int:
    doc = _load_json(args.certificate)
    try:
        checker.verify_certificate(doc)
    except checker.TraceError as e:  # a ValueError, which main would call an input error
        sys.stderr.write(" ".join(f"{quote(args.certificate, str, True)}: {e}".splitlines()) + "\n")
        return 1
    _emit(None, (_dumps({"n": doc["n"], "schema": doc["schema"],
                         "steps": sum(len(t["steps"]) for t in doc["traces"]),
                         "traces": len(doc["traces"]), "verified": True}),))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(f"{self.prog}: {quote(message, str, True)}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use; its `commands` maps each
    command's name to that command's parser.

    `main` reuses it on every call, so callers share it: parse with it, but
    never mutate it (no add_argument, set_defaults or changed prog).
    """
    parser = _Parser(prog="indexlab")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("iterate", help="index table of the iterates of one model")
    p.add_argument("--model", required=True, help="path to a model JSON file")
    p.add_argument("--mmax", type=int, default=50)
    out = p.add_mutually_exclusive_group()
    out.add_argument("--json", help="write output to this path instead of stdout")
    out.add_argument("--csv", action="store_true", help="emit the table as CSV")
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("betti", help="Betti numbers of the loop-space pair")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--qmax", type=int, default=30)
    out = p.add_mutually_exclusive_group()
    out.add_argument("--json")
    out.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("morse-check", help="Morse inequalities for a model set")
    p.add_argument("--models", required=True, help="path to a JSON list of models")
    p.add_argument("--horizon", type=int, default=40)
    p.add_argument("--json")
    p.set_defaults(func=cmd_morse_check)

    p = sub.add_parser("identity", help="mean index identity for a model set")
    p.add_argument("--models", required=True)
    p.add_argument("--json")
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("prove", help="replay the single-geodesic case analysis and emit "
                       "its verified certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("verify", help="re-check a certificate that prove wrote")
    p.add_argument("certificate", help="path to a certificate JSON file")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; every input error ends here as one `error:` line and exit 2."""
    args = None
    try:
        try:
            argv = sys.argv[1:] if argv is None else argv
            parser = build_parser()
            # an argv that names a command is parsed once, by that command's parser; the
            # top-level parser serves the rest: no argument, --help or an unknown command
            command = parser.commands.get(argv[0]) if argv else None
            args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
            for name, least in (("n", 2), ("mmax", 0), ("qmax", 0), ("horizon", 0)):
                if getattr(args, name, least) < least:
                    raise ValueError(f"--{name} must be >= {least}")
            return args.func(args)
        finally:
            sys.stdout.flush()  # so that a reader's closed pipe fails here, not at exit
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except OSError as exc:  # the commands turn every other OSError into a ValueError
        # Writing stdout failed: a reader closed the pipe, or the device is full.  Mark
        # the stream closed, so that exit does not flush what it still buffers into it
        # again; fd 1 itself stays open.
        with contextlib.suppress(AttributeError, OSError, ValueError):
            sys.stdout.buffer.raw.close()
        what = ("stdout was closed before all output was written"
                if isinstance(exc, BrokenPipeError) else "cannot write stdout")
        sys.stderr.write(f"error: {what} ({exc})\n")
        return 2
    except (ValueError, KeyError, OverflowError, MemoryError) as exc:
        message = " ".join(str(exc).splitlines()) or type(exc).__name__
        size = next((f for f in ("mmax", "qmax", "horizon") if hasattr(args, f)), None)
        if size and isinstance(exc, (OverflowError, MemoryError)):  # a size too large
            message = f"--{size} {quote(getattr(args, size))} is too large ({message})"
        sys.stderr.write(f"error: {message}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
