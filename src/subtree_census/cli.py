"""Command-line front end.

One executable, one subcommand per pipeline, machine-readable output (JSON
by default, CSV with `--format csv`).  Every numeric result is printed as
an exact rational string "p/q"; decimal fields are 12-significant-digit
approximations derived from the rationals and are advisory only.  Identical
invocations produce byte-identical output; the timing field is suppressed
under `--deterministic`.

Exit codes: 0 success, 2 input/parse error, 3 resource limit, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Decimal, Inexact, localcontext
from fractions import Fraction

from . import families, search, stems
from .census import (
    SubtreeStats,
    check_leaf_count,
    mean,
    subtree_stats_kirchhoff,
    tree_subtree_stats,
)
from .errors import InvariantViolation, TooLargeError
from .graphs import make_path, parse_graph6

CSV_SCHEMA = "# schema=1"


# str(int) is quadratic in the digit count and refuses more than 4300
# digits by default; above this many bits, _int_str converts through
# decimal instead, whose multiplication is subquadratic.
_STR_BITS = 8000


def _int_str(n: int) -> str:
    """Exact decimal digits of n at any size, without touching the
    interpreter's int-str digit limit.

    The integer is split in binary, n = hi * 2**w + lo, until each part has
    at most `_STR_BITS` bits; `str` converts the parts, and they are
    recombined in a decimal context wide enough to stay exact (the method
    of CPython 3.12's _pylong module).
    """
    if n.bit_length() <= _STR_BITS:
        return str(n)
    powers: dict[int, Decimal] = {}

    def pow2(w: int) -> Decimal:
        if w not in powers:
            half = w >> 1
            powers[w] = (Decimal(2) ** w if w <= _STR_BITS
                         else pow2(half) * pow2(w - half))
        return powers[w]

    def convert(m: int, w: int) -> Decimal:
        if w <= _STR_BITS:
            return Decimal(str(m))
        half = w >> 1
        hi = m >> half
        return convert(m - (hi << half), half) + convert(hi, w - half) * pow2(half)

    with localcontext() as ctx:
        ctx.prec = MAX_PREC
        ctx.Emax = MAX_EMAX
        ctx.Emin = MIN_EMIN
        ctx.traps[Inexact] = True
        digits = str(convert(abs(n), n.bit_length()))
    return "-" + digits if n < 0 else digits


def _rat(x: Fraction) -> str:
    num = _int_str(x.numerator)
    return num if x.denominator == 1 else f"{num}/{_int_str(x.denominator)}"


def _rat_fields(**values: Fraction) -> dict[str, str]:
    """`name`: exact `_rat` string and `name_decimal`: 12-significant-digit
    approximation for each value, all exact fields first.  Each numerator
    and denominator is converted to digits once, for both fields."""
    exact, approx = {}, {}
    for name, x in values.items():
        num, den = _int_str(x.numerator), _int_str(x.denominator)
        exact[name] = num if x.denominator == 1 else f"{num}/{den}"
        # Decimal(int) is quadratic in the digit count; Decimal(str) is not
        with localcontext() as ctx:
            ctx.prec = 12
            approx[f"{name}_decimal"] = str(Decimal(num) / Decimal(den))
    return exact | approx


def _emit(record: dict, rows: list[dict], args) -> None:
    """Print one record; `rows` is the tabular part (CSV rows, JSON list)."""
    if args.format == "json":
        out = dict(record)
        if rows is not None:
            out["rows"] = rows
        print(json.dumps(out, sort_keys=True, indent=2, default=str))
        return
    print(CSV_SCHEMA)
    for key, value in sorted(record.items()):
        if isinstance(value, dict):
            for k2, v2 in sorted(value.items()):
                print(f"# {key}.{k2}={v2}")
        elif isinstance(value, (list, tuple)):
            for v2 in value:
                print(f"# {key}: {v2}")
        else:
            print(f"# {key}={value}")
    if rows:
        writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _stats_payload(stats: SubtreeStats, mu: Fraction, n: int) -> dict:
    sigma = mu / n
    return {
        "order": str(n),
        "count": _int_str(stats.count),
        "total_order": _int_str(stats.total_order),
        **_rat_fields(mu=mu, sigma=sigma),
    }


def _parse_chords(text: str) -> tuple[tuple[int, int], ...]:
    chords = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            a, b = part.split("-")
            chords.append((int(a), int(b)))
        except ValueError:
            raise ValueError(f"bad chord {part!r}; expected like 0-5") from None
    return tuple(chords)


# ---------------------------------------------------------------------------
# Subcommands

def cmd_mu(args) -> tuple[dict, list[dict] | None]:
    if args.family is None:
        for flag in ("L", "s", "k", "chords"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} applies only to --family")
        if args.graph6 is not None:
            g = parse_graph6(args.graph6)
            params = {"graph6": args.graph6}
        else:
            g = make_path(args.path)
            params = {"path": args.path}
        # the tree DP is linear, so trees skip the census size cap
        stats = tree_subtree_stats(g) if g.is_tree() else subtree_stats_kirchhoff(g)
        payload = _stats_payload(stats, mean(stats), g.order)
    else:
        if args.L is None or args.s is None:
            raise ValueError("--family needs --L and --s")
        if args.k is not None and args.family != "fan":
            raise ValueError("--k applies only to --family fan")
        if args.chords is not None and args.family != "chorded":
            raise ValueError("--chords applies only to --family chorded")
        check_leaf_count(args.s)
        if args.family == "broom":
            cen = families.broom_census(args.L)
        elif args.family == "fan":
            cen = families.fan_broom_census(args.L, args.k or 0)
        else:
            cen = families.chorded_broom_census(args.L, _parse_chords(args.chords or ""))
        stats = families.star_stats(cen, args.s)
        payload = _stats_payload(stats, families.star_mean(cen, args.s, stats),
                                 args.L + 2 * args.s)
        params = {"family": args.family, "L": args.L, "s": args.s,
                  "k": args.k or 0, "chords": args.chords or ""}
    return {"command": "mu", "parameters": params, "results": payload}, None


def cmd_decrease(args) -> tuple[dict, list[dict]]:
    k = args.k
    l_min = args.L_min if args.L_min is not None else k + 2
    lengths = range(l_min, args.L_max + 1)
    if not lengths:
        raise ValueError(f"empty length range: L_min = {l_min} > L_max = {args.L_max}")
    sizes = families.geometric_star_sizes(args.s_max)
    witnesses = families.find_decrease_witnesses(k, lengths, sizes)
    rows = [{
        "L": w.length,
        "s": w.star_size,
        "n": w.length + 2 * w.star_size,
        **_rat_fields(mu_base=w.mu_base, mu_added=w.mu_added),
    } for w in witnesses]
    record = {
        "command": "decrease",
        "parameters": {"k": k, "L_min": l_min, "L_max": args.L_max, "s_max": args.s_max},
        "results": {"witnesses": len(rows)},
    }
    return record, rows


def cmd_threshold(args) -> tuple[dict, list[dict]]:
    comparisons, rows, crossing = [], [], None
    for point in stems.mean_sweep(args.m, args.n_max):
        sign = point.sign
        comparisons.append((point.n, sign))
        if crossing is None and sign < 0:
            crossing = point
        if args.full_table:
            rows.append({
                "n": point.n,
                "sign": sign,
                **_rat_fields(mu_split=point.mean("split"),
                              mu_bipartite=point.mean("bipartite")),
            })
    report = stems.ThresholdReport.from_comparisons(args.m, args.n_max, comparisons)
    results = {
        "n_star": report.n_star if report.n_star is not None else "no crossing",
        "persists": report.persists,
        "first_violation": report.first_violation,
    }
    if crossing is not None:
        results["mu_split_at_n_star"] = _rat(crossing.mean("split"))
        results["mu_bipartite_at_n_star"] = _rat(crossing.mean("bipartite"))
    record = {
        "command": "threshold",
        "parameters": {"m": args.m, "n_max": args.n_max},
        "results": results,
    }
    return record, rows


def cmd_scan(args) -> tuple[dict, list[dict]]:
    if args.file == "-":
        report = search.corpus_scan(sys.stdin, max_order=args.max_order, jobs=args.jobs)
    else:
        # surrogateescape keeps stray non-ASCII bytes as per-line parse
        # errors instead of aborting the whole scan
        try:
            fh = open(args.file, "r", encoding="ascii", errors="surrogateescape")
        except OSError as exc:
            raise ValueError(f"cannot read {args.file}: {exc.strerror}") from None
        with fh:
            report = search.corpus_scan(fh, max_order=args.max_order, jobs=args.jobs)
    rows = [{
        "order": inst.order,
        "graph6": inst.graph_id,
        "edge": f"{inst.added[0]}-{inst.added[1]}",
        **_rat_fields(mu_before=inst.mu_before, mu_after=inst.mu_after),
    } for inst in report.instances]
    warnings = [f"line {no}: {msg}" for no, msg in report.parse_errors]
    warnings += [f"line {no}: {msg}" for no, msg in report.skipped]
    record = {
        "command": "scan",
        "parameters": {"file": "<stdin>" if args.file == "-" else args.file,
                       "max_order": args.max_order},
        "results": {
            "graphs_scanned": report.graphs_scanned,
            "instances": len(report.instances),
            "min_order": report.min_order,
        },
        "warnings": warnings,
    }
    return record, rows


def cmd_tree_bound(args) -> tuple[dict, list[dict]]:
    report = search.tree_bound_sweep(args.n_max)
    rows = [{
        "n": n,
        "equalities": report.equalities[n],
        "paths": report.paths[n],
    } for n in sorted(report.equalities)]
    status = "PASS" if report.passed else "FAIL"
    record = {
        "command": "tree-bound",
        "parameters": {"n_max": args.n_max},
        "results": {
            "summary": f"{status} {report.trees_checked} trees",
            "trees_checked": report.trees_checked,
            "violations": len(report.violations),
        },
    }
    return record, rows


def cmd_stem_table(args) -> tuple[dict, list[dict]]:
    if args.n is not None and args.n < 0:
        raise ValueError("--n must be >= 0")
    table_split = stems.stem_table("split", args.m)
    table_bip = stems.stem_table("bipartite", args.m)
    rows = []
    for (a, b) in sorted(table_split.entries):
        row = {
            "a": a,
            "b": b,
            "stems_split": str(table_split.entries[(a, b)]),
            "stems_bipartite": str(table_bip.entries[(a, b)]),
        }
        if args.n is not None and b > args.n:
            # a stem needs b B-vertices, so a host with fewer has no such subtree
            row.update(class_size_split="0", class_size_bipartite="0", class_mean="")
        elif args.n is not None:
            row["class_size_split"] = _int_str(stems.class_size("split", args.m, args.n, a, b))
            row["class_size_bipartite"] = _int_str(stems.class_size("bipartite", args.m, args.n, a, b))
            row["class_mean"] = _rat(stems.class_mean_order(args.n, a, b))
        rows.append(row)
    record = {
        "command": "stem-table",
        "parameters": {"m": args.m, "n": args.n},
        "results": {"classes": len(rows)},
    }
    return record, rows


# ---------------------------------------------------------------------------

def _jobs_value(text: str) -> int:
    try:
        jobs = int(text)
        if jobs >= 1:
            return jobs
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"--jobs / CENSUS_JOBS must be a positive integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subtree-census",
        description="Exact subtree counts and mean subtree order")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--deterministic", action="store_true",
                        help="suppress the timing field")
    # a string default goes through `type` too, so a malformed CENSUS_JOBS
    # is a usage error (exit 2) like a malformed --jobs
    parser.add_argument("--jobs", type=_jobs_value,
                        default=os.environ.get("CENSUS_JOBS", "1"),
                        help="worker processes for scans (env CENSUS_JOBS)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("mu", help="subtree stats of one graph or family member")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph6")
    source.add_argument("--path", type=int)
    source.add_argument("--family", choices=("broom", "fan", "chorded"))
    p.add_argument("--L", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--chords", help="comma-separated core chords, like 0-5,5-10")
    p.set_defaults(fn=cmd_mu)

    p = sub.add_parser("decrease", help="scan for mean-decreasing fan chords")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--L-min", dest="L_min", type=int)
    p.add_argument("--L-max", dest="L_max", type=int, default=22)
    p.add_argument("--s-max", dest="s_max", type=int, default=1024)
    p.set_defaults(fn=cmd_decrease)

    p = sub.add_parser("threshold", help="split vs bipartite mean comparison")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument("--full-table", dest="full_table", action="store_true")
    p.set_defaults(fn=cmd_threshold)

    p = sub.add_parser("scan", help="edge-addition scan over a graph6 stream")
    p.add_argument("--file", required=True, help="path or - for stdin")
    p.add_argument("--max-order", dest="max_order", type=int, default=12)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("tree-bound", help="mean lower bound over all labeled trees")
    p.add_argument("--n-max", dest="n_max", type=int, default=8)
    p.set_defaults(fn=cmd_tree_bound)

    p = sub.add_parser("stem-table", help="stem counts per class")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int)
    p.set_defaults(fn=cmd_stem_table)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        record, rows = args.fn(args)
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    if not args.deterministic:
        record["timing_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    _emit(record, rows, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
