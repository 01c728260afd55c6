"""Command-line front end.

Subcommands: check (axiom checks on a family + ordering), derive
(construct and verify the representing measure), demo-erasure (two-game
reachable sets and the p-sweep), canon (two-dimensional normal form of
a quadruple), gen-rich (emit a rich family and its induced ordering).

Exit codes: 0 success, 1 domain failure (axiom violation or failed
precondition), 2 malformed input or usage error.  Reports are
deterministic: identical input bytes produce identical report bytes.
"""
from __future__ import annotations

import argparse
import gc
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

from .erasure import DEFAULT_INDEX_RANGE, GameSpec, reachable_set, sets_equal
from .formats import (
    FormatError,
    assignment_to_json,
    canonical_dumps,
    digest_bytes,
    event_ref_to_json,
    family_from_json,
    family_to_json,
    ordering_from_json,
    policy_from_json,
    quadruple_from_json,
    quadruple_to_json,
    tiers_to_json,
)
from .neutrality import canonical_quadruple
from .numeric import DEFAULT_POLICY
from .ordering import induced_ordering, run_all_checks
from .representation import (
    MissingUniformMeasurement,
    NonconformingDenominator,
    PreconditionViolated,
    SizeLimitExceeded,
    derive_representation,
    generate_rich_family,
    verify_representation,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2

# demo-erasure plays 32 games over R**2 microstate choices: time and report grow as R**2.
MAX_ERASURE_CHOICES = 10_000

# Witnesses a verdict lists; its witness_count stays exact.  A failing
# K=8 control has 822,609, which would be 287 MB of report.
WITNESS_LIMIT = 1_000


class InputError(Exception):
    """Anything wrong with the inputs themselves: maps to exit 2."""


class DomainFailure(Exception):
    """Well-formed inputs, failed mathematics: maps to exit 1."""

    def __init__(self, message: str, report: dict | None = None):
        super().__init__(message)
        self.report = report


def _read_json(path: str) -> tuple[bytes, Any]:
    """The bytes of a JSON file and the document they hold.  The document
    is an acyclic tree, so the cyclic collector is paused while it grows."""
    raw = Path(path).read_bytes()
    enabled = gc.isenabled()
    gc.disable()
    try:
        return raw, json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: not valid UTF-8 JSON: {exc}")
    finally:
        if enabled:
            gc.enable()


def _emit(report: dict, text_lines: list[str], as_json: bool) -> None:
    if as_json:
        sys.stdout.write(canonical_dumps(report))
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")


def _verdict(check: str, ok: bool, witnesses=()) -> dict:
    return {
        "check": check,
        "result": "pass" if ok else "fail",
        "witness_count": len(witnesses),
        "witnesses": [[event_ref_to_json(r) for r in w] for w in witnesses[:WITNESS_LIMIT]],
    }


def _report(command: str, digest: str, verdicts: list[dict], **artifacts) -> dict:
    """The v1 report of one command; ``artifacts`` only where it has some."""
    report = {
        "schema": "v1",
        "command": command,
        "inputs_digest": digest,
        "verdicts": verdicts,
    }
    return {**report, "artifacts": artifacts} if artifacts else report


def _load_ordering(args):
    """The ordering named on the command line and the digest of both inputs."""
    family_raw, family_doc = _read_json(args.family)
    ordering_raw, ordering_doc = _read_json(args.ordering)
    ordering = ordering_from_json(ordering_doc, family_from_json(family_doc))
    return ordering, digest_bytes(family_raw, ordering_raw)


def cmd_check(args) -> int:
    ordering, digest = _load_ordering(args)
    reports = run_all_checks(ordering)
    verdicts = [_verdict(r.axiom, r.satisfied, r.witnesses) for r in reports]
    report = _report("check", digest, verdicts)
    lines = [
        f"check {v['check']}: {v['result']} ({v['witness_count']} witnesses)"
        for v in verdicts
    ]
    _emit(report, lines, not args.text)
    return EXIT_OK if all(r.satisfied for r in reports) else EXIT_DOMAIN


def cmd_derive(args) -> int:
    if args.K < 1:
        raise InputError("K must be positive")
    ordering, digest = _load_ordering(args)
    try:
        assignment = derive_representation(ordering, args.K)
    except PreconditionViolated as exc:
        verdict = _verdict(f"precondition:{exc.axiom}", False, exc.report.witnesses)
        raise DomainFailure(f"precondition failed: {exc.axiom}", _report("derive", digest, [verdict]))
    except (MissingUniformMeasurement, NonconformingDenominator) as exc:
        name = type(exc).__name__
        raise DomainFailure(
            f"precondition failed: {name}: {exc}",
            _report("derive", digest, [_verdict(f"precondition:{name}", False)]),
        )
    ok, witnesses = verify_representation(assignment, ordering)
    doc = assignment_to_json(assignment)
    Path(args.out).write_text(canonical_dumps(doc), encoding="utf-8")
    report = _report(
        "derive", digest, [_verdict("representation", ok, witnesses)],
        assignment_path=str(args.out), K=args.K,
    )
    lines = [
        f"derive: wrote {args.out}",
        f"check representation: {'pass' if ok else 'fail'} "
        f"({len(witnesses)} witnesses)",
    ]
    _emit(report, lines, not args.text)
    return EXIT_OK if ok else EXIT_DOMAIN


def _canonical_state_json(key: tuple) -> list[dict]:
    out = []
    for result, no_detail, detail, reward, weight in key:
        out.append(
            {
                "result": result,
                "detail": None if no_detail else detail,
                "reward": bool(reward),
                "weight": weight,
            }
        )
    return out


def cmd_demo_erasure(args) -> int:
    if args.p_den < 1 or not (0 < args.p_num < args.p_den):
        raise InputError(
            f"p = {args.p_num}/{args.p_den} is not a probability strictly "
            "between 0 and 1"
        )
    R = args.index_range
    if R < 1:
        raise InputError("index range must be at least 1")
    digest = digest_bytes(f"{args.p_num}/{args.p_den}:{R}".encode())
    if R * R > MAX_ERASURE_CHOICES:
        raise DomainFailure(
            f"index range {R} gives {R * R:,} microstate choices per game; "
            f"demo-erasure is capped at {MAX_ERASURE_CHOICES:,}",
            _report("demo-erasure", digest, [_verdict("size-cap", False)]),
        )
    p = Fraction(args.p_num, args.p_den)
    prep = [("up", p), ("down", 1 - p)]
    game1 = GameSpec(frozenset({"up"}))
    game2 = GameSpec(frozenset({"down"}))
    set1 = reachable_set(prep, game1, R)
    set2 = reachable_set(prep, game2, R)
    equal = sets_equal(set1, set2)
    sweep = []
    for k in range(1, 16):
        pk = Fraction(k, 16)
        prep_k = [("up", pk), ("down", 1 - pk)]
        sets_k = [reachable_set(prep_k, game, R) for game in (game1, game2)]
        sweep.append({"p": f"{k}/16", "equal": sets_equal(*sets_k)})
    report = _report(
        "demo-erasure",
        digest,
        [_verdict("reachable-sets-equal", equal)],
        p=f"{args.p_num}/{args.p_den}",
        index_range=R,
        game1_states=[_canonical_state_json(k) for k in sorted(set1.states)],
        game2_states=[_canonical_state_json(k) for k in sorted(set2.states)],
        sweep=sweep,
    )
    lines = [
        f"p = {args.p_num}/{args.p_den}, index range {R}",
        f"game 1 reaches {len(set1)} states, game 2 reaches {len(set2)} states",
        f"reachable sets equal: {'yes' if equal else 'no'}",
        "",
        "p-sweep (k/16):",
    ]
    for entry in sweep:
        lines.append(f"  p = {entry['p']:>5}: {'equal' if entry['equal'] else 'different'}")
    _emit(report, lines, not args.text)
    return EXIT_OK


def _round12(doc):
    """Clamp every float in a JSON document to 12 significant digits.

    The canon artifact is reported at print precision so that
    equivalent quadruples produce byte-identical reports.
    """
    if isinstance(doc, float):
        return float(f"{doc:.12g}")
    if isinstance(doc, list):
        return [_round12(x) for x in doc]
    if isinstance(doc, dict):
        return {k: _round12(v) for k, v in doc.items()}
    return doc


def cmd_canon(args) -> int:
    quad_raw, quad_doc = _read_json(args.quad)
    policy = DEFAULT_POLICY
    if args.numeric_policy is not None:
        policy = policy_from_json(_read_json(args.numeric_policy)[1])
    quadruple = quadruple_from_json(quad_doc, policy)
    try:
        canon = canonical_quadruple(quadruple)
    except ValueError as exc:  # an eigenvalue_tol too loose for the normal form
        raise InputError(str(exc))
    # The normal-form state is c|0> + d|1>, and the weight is c^2.
    c, d = canon.state.components.real.tolist()
    numbers = {"weight": f"{c * c:.12g}", "c": f"{c:.12g}", "d": f"{d:.12g}"}
    canon_doc = _round12(quadruple_to_json(canon))
    report = _report(
        "canon",
        digest_bytes(quad_raw),
        [_verdict("canonicalize", True)],
        **numbers,
        canonical_quadruple=canon_doc,
    )
    lines = [f"{name} = {value}" for name, value in numbers.items()]
    lines.append(canonical_dumps(canon_doc).rstrip("\n"))
    _emit(report, lines, not args.text)
    return EXIT_OK


def cmd_gen_rich(args) -> int:
    if args.K < 1 or args.max_outcomes < 1:
        raise InputError("K and max outcomes must be positive")
    digest = digest_bytes(f"{args.K}:{args.max_outcomes}".encode())
    try:
        family = generate_rich_family(args.K, args.max_outcomes)
    except SizeLimitExceeded as exc:
        raise DomainFailure(
            str(exc), _report("gen-rich", digest, [_verdict("size-cap", False)])
        )
    ordering = induced_ordering(family)
    out = Path(args.out)
    ordering_out = out.with_suffix(".ordering.json")
    out.write_text(canonical_dumps(family_to_json(family)), encoding="utf-8")
    ordering_out.write_text(canonical_dumps(tiers_to_json(ordering)), encoding="utf-8")
    report = _report(
        "gen-rich",
        digest,
        [_verdict("size-cap", True)],
        family_path=str(out),
        ordering_path=str(ordering_out),
        measurements=len(family.measurements),
        K=args.K,
        max_outcomes=args.max_outcomes,
    )
    lines = [
        f"gen-rich: {len(family.measurements)} measurements "
        f"(K={args.K}, max outcomes={args.max_outcomes})",
        f"wrote family to {out}",
        f"wrote induced ordering to {ordering_out}",
    ]
    _emit(report, lines, not args.text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="born-kernel",
        description=(
            "Check likelihood orderings against the rationality axioms, "
            "derive and verify representing probability measures, and run "
            "the erasure and canonical-form demonstrations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument(
            "--text", action="store_true",
            help="emit a plain-text report (default: a JSON report)",
        )

    p = sub.add_parser("check", help="run the five axiom checks")
    p.add_argument("--family", required=True, help="family JSON path")
    p.add_argument("--ordering", required=True, help="ordering JSON path")
    add_output_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("derive", help="derive and verify the representing measure")
    p.add_argument("--family", required=True, help="family JSON path")
    p.add_argument("--ordering", required=True, help="ordering JSON path")
    p.add_argument("-K", type=int, required=True, help="grid constant")
    p.add_argument("--out", required=True, help="assignment JSON output path")
    add_output_flags(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("demo-erasure", help="two-game erasure demonstration")
    p.add_argument("--p-num", type=int, required=True, help="reward weight numerator")
    p.add_argument("--p-den", type=int, required=True, help="reward weight denominator")
    p.add_argument(
        "--index-range", type=int, default=DEFAULT_INDEX_RANGE,
        help="number of erasure microstates per branch (default %(default)s)",
    )
    add_output_flags(p)
    p.set_defaults(func=cmd_demo_erasure)

    p = sub.add_parser("canon", help="two-dimensional normal form of a quadruple")
    p.add_argument("--quad", required=True, help="quadruple JSON path")
    p.add_argument(
        "--numeric-policy", default=None,
        help="JSON file overriding float tolerances",
    )
    add_output_flags(p)
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("gen-rich", help="emit a rich family and its induced ordering")
    p.add_argument("-K", type=int, required=True, help="grid constant")
    p.add_argument("--max-outcomes", type=int, required=True)
    p.add_argument("--out", required=True, help="family JSON path; ordering: <out>.ordering.json")
    add_output_flags(p)
    p.set_defaults(func=cmd_gen_rich)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DomainFailure as exc:
        if exc.report is not None and not args.text:
            sys.stdout.write(canonical_dumps(exc.report))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
