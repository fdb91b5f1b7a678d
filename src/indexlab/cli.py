"""Command-line front end: exact tables and proof certificates as JSON.

Exit codes: 0 = success (all checks hold / all traces closed), 1 = a checked
inequality or identity failed, 2 = input or validation error.  All exact
numbers serialize in the "(a+b*sqrt(D))/c" form, never as floats.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import iteration, morse, prover
from .exact import ExactReal


def _emit(obj: dict, json_path: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(_fail(f"cannot read {path}: {exc}"))


def _fail(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return 2


def _parse_model(obj, label: str) -> iteration.GeodesicModel:
    try:
        return iteration.model_from_json(obj)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SystemExit(_fail(f"{label}: {exc}"))


def _load_models(path: str) -> list[iteration.GeodesicModel]:
    """Models of one dimension n, at least one, from a JSON list or {"models": [...]}."""
    payload = _load_json(path)
    entries = payload.get("models") if isinstance(payload, dict) else payload
    if not isinstance(entries, list) or not entries:
        raise SystemExit(_fail(f"{path}: expected a non-empty list of models"))
    models = [_parse_model(obj, f"model #{idx}") for idx, obj in enumerate(entries)]
    if any(g.n != models[0].n for g in models):
        raise SystemExit(_fail("all models must share the sphere dimension n"))
    return models


def cmd_iterate(args) -> int:
    g = _parse_model(_load_json(args.model), "model")
    rows = []
    for m in range(1, args.mmax + 1):
        i_m, nu = iteration.index_of_iterate(g, m)
        eps, k0 = iteration.critical_type(g, m)
        rows.append({"m": m, "i": i_m, "nu": nu, "epsilon": eps, "k0": k0})
    out = {
        "case": g.case.value,
        "mean_index": iteration.mean_index(g).serialize(),
        "period": iteration.analytic_period(g),
        "rows": rows,
    }
    if args.csv:
        writer = csv.DictWriter(sys.stdout, fieldnames=["m", "i", "nu", "epsilon", "k0"])
        writer.writeheader()
        writer.writerows(rows)
    else:
        _emit(out, args.json)
    return 0


def cmd_betti(args) -> int:
    out = {"n": args.n, "b": [morse.betti(args.n, q) for q in range(args.qmax + 1)]}
    if args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(["q", "b_q"])
        writer.writerows(enumerate(out["b"]))
    else:
        _emit(out, args.json)
    return 0


def cmd_series(args) -> int:
    s = morse.poincare_series_truncated(args.n, args.degree)
    _emit({"n": args.n, "coefficients": list(s.coefficients)}, args.json)
    return 0


def cmd_morse_check(args) -> int:
    models = _load_models(args.models)
    M = morse.morse_numbers(models, args.horizon)
    b = morse.BettiTable(models[0].n, args.horizon)
    violations = morse.check_morse_inequalities(M, b, args.horizon)
    out = {
        "horizon": args.horizon,
        "M": list(M.values),
        "b": b.values(),
        "violations": [
            {"q": v.q, "kind": v.kind, "lhs": v.lhs, "rhs": v.rhs} for v in violations
        ],
    }
    _emit(out, args.json)
    return 1 if violations else 0


def cmd_identity(args) -> int:
    models = _load_models(args.models)
    n = models[0].n
    lhs = morse.mean_index_identity_lhs(models)
    rhs = morse.euler_limit(n)
    holds = lhs == ExactReal.from_fraction(rhs)
    _emit(
        {
            "n": n,
            "lhs": lhs.serialize(),
            "rhs": ExactReal.from_fraction(rhs).serialize(),
            "holds": holds,
        },
        args.json,
    )
    return 0 if holds else 1


def cmd_prove(args) -> int:
    if args.case:
        try:
            case = iteration.Case(args.case.upper())
        except ValueError:
            return _fail(f"unknown case filter: {args.case}")
        traces = prover._replay_case(args.n, case)
    else:
        traces = prover.replay(args.n)
    for t in traces:
        prover.verify_trace(t)
    _emit(prover.certificate(args.n, traces), args.json)
    closed = all(
        t.verdict in (prover.Verdict.CONTRADICTION, prover.Verdict.VACUOUS) for t in traces
    )
    return 0 if closed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="indexlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("iterate", help="index table of the iterates of one model")
    p.add_argument("--model", required=True, help="path to a model JSON file")
    p.add_argument("--mmax", type=int, default=50)
    p.add_argument("--json", help="write output to this path instead of stdout")
    p.add_argument("--csv", action="store_true", help="emit the table as CSV")
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("betti", help="Betti numbers of the loop-space pair")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--qmax", type=int, default=30)
    p.add_argument("--json")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("series", help="truncated Poincare series coefficients")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=int, default=30)
    p.add_argument("--json")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("morse-check", help="Morse inequalities for a model set")
    p.add_argument("--models", required=True, help="path to a JSON list of models")
    p.add_argument("--horizon", type=int, default=40)
    p.add_argument("--json")
    p.set_defaults(func=cmd_morse_check)

    p = sub.add_parser("identity", help="mean index identity for a model set")
    p.add_argument("--models", required=True)
    p.add_argument("--json")
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("prove", help="replay the single-geodesic case analysis; O(n^2) in "
                       "time and in certificate size (about 0.63 MB at n = 300)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--case", help="restrict to one case tag, e.g. ncg3")
    p.add_argument("--json")
    p.set_defaults(func=cmd_prove)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for name, least in (("n", 2), ("mmax", 0), ("qmax", 0), ("horizon", 0)):
            if getattr(args, name, least) < least:
                return _fail(f"--{name} must be >= {least}")
        return args.func(args)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    except (ValueError, KeyError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
