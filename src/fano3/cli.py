"""Command-line surface: searches, eliminations, oracle tables.

Exit codes: 0 success, 1 survivors or an invariant violation, 2 usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction

from .certificates import certificate_to_dict
from .eliminate import eliminate_candidate, candidate_for_case, run_full_pipeline, group_c_closed_form
from .lb import lb_of
from .search import run_search
from .wps import WeightedP3, h0 as wps_h0

SCHEMA_VERSION = "1"


class UsageError(Exception):
    pass


def _rat(value) -> dict:
    f = Fraction(value)
    return {"num": f.numerator, "den": f.denominator, "display": str(f)}


def _candidate_record(c) -> dict:
    return {
        "basket": [list(p) for p in c.basket.points],
        "q": c.q,
        "r_X": c.r_x,
        "J_A": c.j_a,
        "rXc13": c.rXc13,
        "rXc2c1": c.rXc2c1,
        "prime_powers": list(c.prime_powers),
        "lb_values": list(c.lb_values),
        "nabla": _rat(c.nabla),
        "nabla_display": c.nabla_display,
    }


CANDIDATE_COLUMNS = [
    "no", "basket", "q", "r_X", "rXc13", "rXc2c1", "prime_powers",
    "lb_values", "nabla", "nabla_display",
]
#: Markdown headings of a search table: every CSV column but the exact nabla
CANDIDATE_HEADINGS = ["No", "B", "q", "r_X", "r_X c1^3", "r_X c2c1", "{p^a}", "{LB(p^a)}", "nabla"]
STEP_COLUMNS = ["case_id", "step", "kind", "outcome", "domain_size", "citation", "description"]


def _render(fmt: str, doc: dict, header, rows) -> str:
    """``doc`` in the JSON envelope that carries ``schema_version``, or
    ``rows`` under ``header`` as CSV or as a Markdown table."""
    if fmt == "json":
        return json.dumps({"schema_version": SCHEMA_VERSION, **doc}, indent=2) + "\n"
    if fmt == "csv":
        import csv  # only CSV output needs it

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(str(x) for x in row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def _candidate_rows(records, fmt: str):
    """The search table's rows: CSV joins lists with ';' and keeps the exact
    nabla, Markdown joins them with ',' and shows only its display."""
    sep = ";" if fmt == "csv" else ","
    for i, r in enumerate(records, 1):
        exact = [f"{r['nabla']['num']}/{r['nabla']['den']}"] if fmt == "csv" else []
        yield [
            i,
            sep.join(f"({a},{b})" for a, b in r["basket"]),
            r["q"], r["r_X"], r["rXc13"], r["rXc2c1"],
            sep.join(str(x) for x in r["prime_powers"]),
            sep.join(str(x) for x in r["lb_values"]),
            *exact,
            r["nabla_display"],
        ]


def _emit(text: str, out: str | None):
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _jobs(args) -> int:
    """The worker count ``--jobs`` asks for, 1 when it is not given."""
    jobs = 1 if args.jobs is None else args.jobs
    if jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {jobs}")
    return jobs


def cmd_search(args) -> int:
    candidates = run_search(args.qmin, args.mode, _jobs(args))
    records = [_candidate_record(c) for c in candidates]
    header = CANDIDATE_COLUMNS if args.format == "csv" else CANDIDATE_HEADINGS
    rows = _candidate_rows(records, args.format)
    _emit(_render(args.format, {"payload": records}, header, rows), args.out)
    return 0


def cmd_eliminate(args) -> int:
    if args.all:
        report = run_full_pipeline(_jobs(args))
        payload = [certificate_to_dict(v.certificate) for _, v in report.verdicts]
        summary = report._asdict()
        del summary["verdicts"]  # the payload holds them
        if report.survivors:
            print(f"survivors remain: {report.survivors}", file=sys.stderr)
            return 1
    else:
        if args.jobs is not None:
            raise UsageError("--jobs applies to --all only")
        verdict = eliminate_candidate(args.case, candidate_for_case(args.case))
        payload = [certificate_to_dict(verdict.certificate)]
        summary = {"eliminated": verdict.eliminated}
        if not verdict.eliminated:
            print(f"case {args.case} not eliminated", file=sys.stderr)
            return 1
    if args.format == "md":
        lines = []
        for cert in payload:
            lines.append(f"### Case {cert['case_id']}")
            for i, s in enumerate(cert["steps"], 1):
                tag = f" [{s['citation']}]" if s["citation"] else ""
                dom = f" (domain {s['domain_size']})" if s["domain_size"] else ""
                lines.append(f"{i}. **{s['kind']}**{tag}: {s['description']}{dom} -> {s['outcome']}")
            lines.append("")
        text = "\n".join(lines)
    else:
        rows = (
            [
                cert["case_id"], i, s["kind"], s["outcome"],
                s["domain_size"] if s["domain_size"] is not None else "",
                s["citation"] or "", s["description"],
            ]
            for cert in payload
            for i, s in enumerate(cert["steps"], 1)
        )
        text = _render(args.format, {"summary": summary, "payload": payload}, STEP_COLUMNS, rows)
    _emit(text, args.out)
    return 0


def _parse_range(text: str):
    if ".." in text:
        a, b = text.split("..", 1)
        return int(a), int(b)
    return int(text), int(text)


def _value_table(pairs, args) -> str:
    return _render(args.format, {"payload": pairs}, ["key", "value"], pairs)


def cmd_h0(args) -> int:
    lo, hi = _parse_range(args.s)
    if not (0 < lo <= hi < 66):
        raise UsageError("s range must sit inside 1..65")
    pairs = [(s, group_c_closed_form(s)) for s in range(lo, hi + 1)]
    _emit(_value_table(pairs, args), args.out)
    return 0


def cmd_wps(args) -> int:
    try:
        weights = [int(x) for x in args.weights.split(",")]
        space = WeightedP3(weights)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"malformed weights: {exc}")
    if args.smax < 1:
        raise UsageError("smax must be positive")
    pairs = [(s, wps_h0(space, s)) for s in range(1, args.smax + 1)]
    _emit(_value_table(pairs, args), args.out)
    return 0


def cmd_lb(args) -> int:
    try:
        R = tuple(sorted(int(x) for x in args.R.split(",")))
        lb_of(R, 2)  # LB(2) = 1: the call only checks R
    except ValueError as exc:
        raise UsageError(f"malformed R: {exc}")
    pairs = [(args.N, lb_of(R, args.N))]
    _emit(_value_table(pairs, args), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fano3",
        description="Exact search-and-eliminate engine for large Fano indices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "md"), default="json")
        p.add_argument("--out", default=None)

    p_search = sub.add_parser("search", help="enumerate candidates above the threshold")
    p_search.add_argument("--qmin", type=int, default=66)
    p_search.add_argument("--mode", choices=("greater", "equal"), default="greater")
    p_search.add_argument("--jobs", type=int)
    common(p_search)
    p_search.set_defaults(func=cmd_search)

    p_elim = sub.add_parser("eliminate", help="run elimination scripts, emit certificates")
    which = p_elim.add_mutually_exclusive_group(required=True)
    which.add_argument("--case", type=int)
    which.add_argument("--all", action="store_true")
    p_elim.add_argument("--jobs", type=int)
    common(p_elim)
    p_elim.set_defaults(func=cmd_eliminate)

    p_h0 = sub.add_parser("h0", help="shared closed-form h^0 values")
    p_h0.add_argument("--s", required=True, help="degree or range A..B")
    common(p_h0)
    p_h0.set_defaults(func=cmd_h0)

    p_wps = sub.add_parser("wps", help="weighted projective monomial counts")
    p_wps.add_argument("--weights", required=True)
    p_wps.add_argument("--smax", type=int, required=True)
    common(p_wps)
    p_wps.set_defaults(func=cmd_wps)

    p_lb = sub.add_parser("lb", help="degree lower bound LB(N) for a multiset R")
    p_lb.add_argument("--R", required=True)
    p_lb.add_argument("--N", type=int, required=True)
    common(p_lb)
    p_lb.set_defaults(func=cmd_lb)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
