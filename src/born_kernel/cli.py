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
from .numeric import DEFAULT_INDEX_RANGE, DEFAULT_POLICY
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

# demo-erasure lists the R**2 states of each of its two games' reachable sets;
# its verdict and 15-point sweep read each set's description and list none.
MAX_ERASURE_CHOICES = 10_000

# Witnesses a verdict lists; its witness_count stays exact.  A failing
# K=8 control has 822,609, which would be 287 MB of report.
WITNESS_LIMIT = 1_000


class InputError(Exception):
    """Anything wrong with the inputs themselves: maps to exit 2."""


class DomainFailure(Exception):
    """Well-formed inputs, failed mathematics: maps to exit 1."""

    def __init__(self, message: str, report: dict):
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
    except (ValueError, RecursionError) as exc:  # undecodable, too deep, or an int too long
        raise InputError(f"{path}: not valid UTF-8 JSON: {exc}")
    finally:
        if enabled:
            gc.enable()


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


def _verdict_line(verdict: dict) -> str:
    return f"check {verdict['check']}: {verdict['result']} ({verdict['witness_count']} witnesses)"


def cmd_check(args) -> tuple[int, dict, list[str]]:
    ordering, digest = _load_ordering(args)
    reports = run_all_checks(ordering)
    verdicts = [_verdict(r.axiom, r.satisfied, r.witnesses) for r in reports]
    code = EXIT_OK if all(r.satisfied for r in reports) else EXIT_DOMAIN
    return code, _report("check", digest, verdicts), list(map(_verdict_line, verdicts))


def cmd_derive(args) -> tuple[int, dict, list[str]]:
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
    verdict = _verdict("representation", ok, witnesses)
    report = _report("derive", digest, [verdict], assignment_path=str(args.out), K=args.K)
    lines = [f"derive: wrote {args.out}", _verdict_line(verdict)]
    return (EXIT_OK if ok else EXIT_DOMAIN), report, lines


def _canonical_state_json(key: tuple) -> list[dict]:
    """A reachable state's branches, each exact weight rounded to 12 places."""
    return [{"result": result, "detail": None if no_detail else detail,
             "reward": bool(reward), "weight": round(num / den, 12)}
            for result, no_detail, detail, reward, (num, den) in key]


def cmd_demo_erasure(args) -> tuple[int, dict, list[str]]:
    from .erasure import GameSpec, reachable_set, sets_equal
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

    def game_sets(p: Fraction):
        """The sets reached when reward is on "up", and when it is on "down"."""
        prep = [("up", p), ("down", 1 - p)]
        return [reachable_set(prep, GameSpec(frozenset({r})), R) for r in ("up", "down")]

    set1, set2 = game_sets(Fraction(args.p_num, args.p_den))
    equal = sets_equal(set1, set2)
    sweep = [{"p": f"{k}/16", "equal": sets_equal(*game_sets(Fraction(k, 16)))}
             for k in range(1, 16)]
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
    return EXIT_OK, report, lines


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


def cmd_canon(args) -> tuple[int, dict, list[str]]:
    from .neutrality import canonical_quadruple
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
    return EXIT_OK, report, lines


def cmd_gen_rich(args) -> tuple[int, dict, list[str]]:
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
    return EXIT_OK, report, lines


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

    p = sub.add_parser("check", help="run the five axiom checks")
    p.add_argument("--family", required=True, help="family JSON path")
    p.add_argument("--ordering", required=True, help="ordering JSON path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("derive", help="derive and verify the representing measure")
    p.add_argument("--family", required=True, help="family JSON path")
    p.add_argument("--ordering", required=True, help="ordering JSON path")
    p.add_argument("-K", type=int, required=True, help="grid constant")
    p.add_argument("--out", required=True, help="assignment JSON output path")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("demo-erasure", help="two-game erasure demonstration")
    p.add_argument("--p-num", type=int, required=True, help="reward weight numerator")
    p.add_argument("--p-den", type=int, required=True, help="reward weight denominator")
    p.add_argument(
        "--index-range", type=int, default=DEFAULT_INDEX_RANGE,
        help="number of erasure microstates per branch (default %(default)s)",
    )
    p.set_defaults(func=cmd_demo_erasure)

    p = sub.add_parser("canon", help="two-dimensional normal form of a quadruple")
    p.add_argument("--quad", required=True, help="quadruple JSON path")
    p.add_argument(
        "--numeric-policy", default=None,
        help="JSON file overriding float tolerances",
    )
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("gen-rich", help="emit a rich family and its induced ordering")
    p.add_argument("-K", type=int, required=True, help="grid constant")
    p.add_argument("--max-outcomes", type=int, required=True)
    p.add_argument("--out", required=True, help="family JSON path; ordering: <out>.ordering.json")
    p.set_defaults(func=cmd_gen_rich)

    for p in sub.choices.values():
        p.add_argument(
            "--text", action="store_true",
            help="emit a plain-text report (default: a JSON report)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and write its report, the only write to stdout.
    Each ``cmd_*`` returns its exit code, its v1 report and the lines of its
    ``--text`` report.  A domain failure's report is written in JSON mode
    only, and its message goes to stderr after it."""
    args = build_parser().parse_args(argv)
    failure = None
    try:
        try:
            code, report, lines = args.func(args)
        except DomainFailure as exc:
            code, report, lines, failure = EXIT_DOMAIN, exc.report, [], exc
        if not args.text:
            sys.stdout.write(canonical_dumps(report))
        elif lines:
            sys.stdout.write("\n".join(lines) + "\n")
    except (InputError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
    return code


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
