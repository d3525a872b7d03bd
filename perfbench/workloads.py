"""The benchmark's four workloads.

Each workload knows how to

* build its inputs from a seed (`inputs`; this is set-up, untimed),
* run them through the library (`run`; this is the timed region),
* encode the result as JSON for the parent process (`encode`),
* check one encoded result exactly (`check`),
* check the first result once more through an independent route (`gate`),
* name the `subtree-census` commands that must print the same result
  (`cli_gates`).

Timed code calls the library through module attributes
(`families.find_decrease_witnesses`, `census.subtree_stats_kirchhoff`, ...)
so that the traced run can rebind those names.

Sizes: "full" is what the benchmark measures; "small" is a quick version
with its own references, used by the benchmark's self-check.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Callable

from subtree_census import census, families, graphs, search, stems, trees
from subtree_census.census import MarkedCensus, SubtreeStats

# ---------------------------------------------------------------------------
# Encoding helpers

def _feed(h, obj) -> None:
    """Canonical, type-tagged bytes of nested ints, Fractions, strings and
    sequences; ints go through `to_bytes`, so no decimal conversion (and no
    int-str digit limit) is involved."""
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, bool):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, int):
        raw = obj.to_bytes(obj.bit_length() // 8 + 1, "big", signed=True)
        h.update(b"I" + len(raw).to_bytes(8, "big") + raw)
    elif isinstance(obj, Fraction):
        h.update(b"Q")
        _feed(h, obj.numerator)
        _feed(h, obj.denominator)
    elif isinstance(obj, str):
        raw = obj.encode()
        h.update(b"S" + len(raw).to_bytes(8, "big") + raw)
    elif isinstance(obj, (tuple, list)):
        h.update(b"L" + len(obj).to_bytes(8, "big"))
        for item in obj:
            _feed(h, item)
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def frac_out(x: Fraction) -> str:
    """Hex "p/q": exact, and free of the int-str digit limit."""
    return f"{x.numerator:x}/{x.denominator:x}"


def frac_in(text: str) -> Fraction:
    p, q = text.split("/")
    return Fraction(int(p, 16), int(q, 16))


def _parse_rat(text: str) -> Fraction:
    """Parse the CLI's decimal "p/q", lifting the int-str digit limit in this
    process only: the benchmark must be able to read any output the CLI
    manages to print."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        return Fraction(text)
    old = get()
    sys.set_int_max_str_digits(0)
    try:
        return Fraction(text)
    finally:
        sys.set_int_max_str_digits(old)


def census_out(c: MarkedCensus) -> list:
    return sorted([sorted(marks), j, st.count, st.total_order]
                  for (marks, j), st in c.table.items())


def census_in(rows: list, marked, tracked) -> MarkedCensus:
    table = {(frozenset(m), j): SubtreeStats(c, t) for m, j, c, t in rows}
    return MarkedCensus(frozenset(marked), frozenset(tracked), table)


@dataclass
class Check:
    """One checked operation. `ok` is None when the operation produced no
    output to compare (an error), False when its output was wrong."""

    label: str
    ok: bool | None
    detail: str = ""


@dataclass
class CliGate:
    """One `subtree-census --deterministic <argv>` run and how to judge it."""

    argv: list[str]
    stdin: str | None
    compare: Callable[[dict], tuple[bool, str]]


class Workload:
    """One benchmark workload; see the module docstring for the protocol."""

    name: str
    why: str

    def inputs(self, seed: int, size: str) -> dict:
        raise NotImplementedError

    def run(self, inp: dict):
        raise NotImplementedError

    def encode(self, inp: dict, result) -> dict:
        raise NotImplementedError

    def check(self, inp: dict, record: dict) -> list[Check]:
        raise NotImplementedError

    def gate(self, inp: dict, record: dict) -> tuple[list[Check], float]:
        """Independent-route checks, and the seconds they spent in the
        brute-force census routes."""
        return [], 0.0

    def cli_gates(self, inp: dict, record: dict) -> list[CliGate]:
        raise NotImplementedError

    def counts(self, record: dict) -> dict[str, int]:
        """Exact per-layer counts read off the result."""
        return {}


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# decrease-scan: criterion 06's scan; fixed grid, ignores the seed.

# sha256 of `digest([(L, s, mu_base, mu_added), ...])` per k, recorded from
# the package as first committed; the first witness is (L, s).
DECREASE_REF = {
    "full": {"L_max": 22, "s_max": 1 << 16, "expect": {
        1: (280, (3, 8), "a681d32f95150e3d011075d7d8b190a6643303af7936055aeac935c17127b121"),
        2: (266, (4, 8), "97be7f5f1339e7fe91a8235a921a739f7301e7369efb5e686c88d84479178d1a"),
        3: (252, (5, 8), "6fc93c5680894e7910a0fa0126f3f9adff702e316a0e0bef0571a315fd85a9b8"),
    }},
    "small": {"L_max": 11, "s_max": 1 << 8, "expect": {
        1: (54, (3, 8), "2ee5b1eb7b0ede2c3601e2b313957600857a07935b784b52340831df58c83335"),
        2: (48, (4, 8), "9320b8d40f86ed66d64d692dd23fd050ff83a822392bda14176c0382f0a0f39c"),
        3: (42, (5, 8), "79d55e1d2979c7b31df61a0eb812d5bbd45d29f20dc161ec7c324423284a489e"),
    }},
}


def _witness_key(witnesses) -> list:
    return [(w.length, w.star_size, w.mu_base, w.mu_added) for w in witnesses]


class DecreaseScan(Workload):
    name = "decrease-scan"
    why = ("the only workload with ~1e5-bit integers: pendant-star attachment, "
           "Fraction means and 77 cold core marked censuses; fixed grid")

    def inputs(self, seed, size):
        ref = DECREASE_REF[size]
        return {"ks": (1, 2, 3), "L_max": ref["L_max"], "s_max": ref["s_max"],
                "sizes": families.geometric_star_sizes(ref["s_max"]),
                "expect": ref["expect"]}

    def run(self, inp):
        return [(k, families.find_decrease_witnesses(k, range(k + 2, inp["L_max"] + 1),
                                                     inp["sizes"]))
                for k in inp["ks"]]

    def encode(self, inp, result):
        items = []
        for k, ws in result:
            first = ws[0] if ws else None
            items.append({
                "k": k,
                "witnesses": len(ws),
                "first": None if first is None else [
                    first.length, first.star_size,
                    frac_out(first.mu_base), frac_out(first.mu_added)],
                "all_decrease": all(w.mu_added < w.mu_base for w in ws),
                "digest": digest(_witness_key(ws)),
            })
        points = sum(len(range(k + 2, inp["L_max"] + 1)) for k in inp["ks"]) * len(inp["sizes"])
        return {"items": items, "points": points}

    def check(self, inp, record):
        out = []
        for item in record["items"]:
            count, first, ref = inp["expect"][item["k"]]
            ok = (item["witnesses"] == count and item["first"] is not None
                  and tuple(item["first"][:2]) == first and item["all_decrease"]
                  and item["digest"] == ref)
            out.append(Check(f"k={item['k']} witnesses", ok,
                             f"{item['witnesses']} witnesses, first {item['first'] and item['first'][:2]}"))
        return out

    def gate(self, inp, record):
        """Re-verify each first witness by explicit spanning-tree listing on
        the core plus the star algebra (criterion 06's first re-check)."""
        out = []
        brute_s = 0.0
        for item in record["items"]:
            k = item["k"]
            if item["first"] is None:
                out.append(Check(f"k={k} first witness", False, "no witness"))
                continue
            length, s, base_text, added_text = item["first"]
            core, hubs = graphs.make_fan_broom_core(length, k)
            leaves = {h: s for h in hubs}
            added, dt1 = _timed(census.marked_census_bruteforce, core, hubs)
            base, dt2 = _timed(census.marked_census_bruteforce, graphs.make_path(length), hubs)
            brute_s += dt1 + dt2
            ok = (census.mean(census.attach_pendant_stars(added, leaves)) == frac_in(added_text)
                  and census.mean(census.attach_pendant_stars(base, leaves)) == frac_in(base_text))
            out.append(Check(f"k={k} first witness by brute force", ok, f"(L, s) = ({length}, {s})"))
        return out, brute_s

    def cli_gates(self, inp, record):
        gates = []
        for item in record["items"]:
            def compare(payload, item=item):
                rows = payload["rows"]
                key = [(r["L"], r["s"], _parse_rat(r["mu_base"]), _parse_rat(r["mu_added"]))
                       for r in rows]
                ok = len(rows) == item["witnesses"] and digest(key) == item["digest"]
                return ok, f"{len(rows)} rows"
            gates.append(CliGate(["decrease", "--k", str(item["k"]),
                                  "--L-max", str(inp["L_max"]), "--s-max", str(inp["s_max"])],
                                 None, compare))
        return gates

    def counts(self, record):
        return {"families.points": record["points"],
                "families.witnesses": sum(i["witnesses"] for i in record["items"])}


# ---------------------------------------------------------------------------
# broom-census: materialized order-18 double and fan brooms.

# Slots of (L, s, k) triples with L + 2s = n.  Members of one slot take
# within a few percent of the same time, so the seed changes which graphs
# are censused but hardly the amount of work: (count, members) picks
# `count` distinct members.
BROOM_SLOTS = {
    "full": ((2, ((2, 8, 0), (4, 7, 1), (4, 7, 2))),
             (1, ((6, 6, 1), (6, 6, 2))),
             (1, ((8, 5, 1), (8, 5, 2))),
             (1, ((4, 7, 0), (10, 4, 3)))),
    "small": ((2, ((2, 5, 0), (4, 4, 1), (4, 4, 2))),
              (1, ((6, 3, 1), (6, 3, 2))),
              (1, ((4, 4, 0), (8, 2, 3)))),
}


def _broom_core(length: int, k: int):
    if k:
        return graphs.make_fan_broom_core(length, k)
    return graphs.make_broom_core(length)


def _fan_chords(length: int, k: int) -> list[tuple[int, int]]:
    return [(i, length - 1) for i in range(k)]


class BroomCensus(Workload):
    name = "broom-census"
    why = ("seeded order-18 double and fan brooms with 15k-66k connected subsets each: "
           "sparse, leafy graphs where per-subset Laplacian building and Bareiss "
           "elimination dominate")

    def inputs(self, seed, size):
        rng = random.Random(seed)
        picks = []
        for count, members in BROOM_SLOTS[size]:
            picks += rng.sample(members, count)
        rng.shuffle(picks)
        return {"picks": picks}

    def run(self, inp):
        out = []
        for length, s, k in inp["picks"]:
            if k:
                g = graphs.make_fan_broom(length, s, k)
            else:
                g = graphs.make_double_broom(length, s)
            core, hubs = _broom_core(length, k)
            chords = _fan_chords(length, k)
            out.append((census.subtree_stats_kirchhoff(g),
                        census.marked_census(core, hubs, chords),
                        census.census_with_required(core, hubs, chords)))
        return out

    def encode(self, inp, result):
        items = []
        for (length, s, k), (stats, tracked, required) in zip(inp["picks"], result):
            body = [[stats.count, stats.total_order], census_out(tracked), census_out(required)]
            items.append({"L": length, "s": s, "k": k, "stats": body[0],
                          "tracked": body[1], "required": body[2], "digest": digest(body)})
        return {"items": items}

    def check(self, inp, record):
        """Star algebra for the whole graph; the tracked census summed over
        its tracked dimension must give the plain census, its all-chords
        cells must equal the required-edge census, and with stars attached it
        must reproduce the materialized census."""
        out = []
        for item in record["items"]:
            length, s, k = item["L"], item["s"], item["k"]
            core, hubs = _broom_core(length, k)
            chords = _fan_chords(length, k)
            stats = SubtreeStats(*item["stats"])
            tracked = census_in(item["tracked"], hubs, chords)
            required = census_in(item["required"], hubs, chords)
            plain = census.marked_census(core, hubs)
            sums: dict = {}
            for (marks, _), st in tracked.table.items():
                sums[marks] = sums.get(marks, census.ZERO_STATS) + st
            ok = (stats == families.fan_broom_stats(length, s, k)
                  and census.attach_pendant_stars(tracked, {h: s for h in hubs}) == stats
                  and sums == {marks: st for (marks, _), st in plain.table.items()}
                  and required.table == {key: st for key, st in tracked.table.items()
                                         if key[1] == k})
            out.append(Check(f"broom (L, s, k) = ({length}, {s}, {k})", ok))
        return out

    def cli_gates(self, inp, record):
        gates = []
        for item in record["items"]:
            argv = ["mu", "--family", "fan" if item["k"] else "broom",
                    "--L", str(item["L"]), "--s", str(item["s"])]
            if item["k"]:
                argv += ["--k", str(item["k"])]

            def compare(payload, item=item):
                res = payload["results"]
                got = [int(res["count"]), int(res["total_order"])]
                return got == item["stats"], f"count, total = {got}"
            gates.append(CliGate(argv, None, compare))
        return gates


# ---------------------------------------------------------------------------
# search-sweep: a seeded graph6 corpus, then the labelled-tree bound sweep.

# Valid corpus graphs come from a fixed grid of (order, edge density) cells
# with a fixed edge count per cell; the seed draws the graphs inside each
# cell, which keeps the work nearly the same from seed to seed.
SEARCH_SIZES = {
    "full": {"orders": range(6, 11), "densities": (0.15, 0.25, 0.35, 0.45, 0.6),
             "per_cell": 6, "malformed": 4, "oversize": 3, "disconnected": 3,
             "sweep": 8},
    "small": {"orders": (7, 10), "densities": (0.2, 0.35, 0.5), "per_cell": 2,
              "malformed": 3, "oversize": 1, "disconnected": 1, "sweep": 6},
}
# sha256 of the tree-sweep summary, recorded from the package as first committed.
SWEEP_REF = {"full": "7e5f12c256252e54d9daa4406e5a160d66639cd1caeeb8406fe47cfc85592164",
             "small": "b472c3291cb981360a1d9cc916dbba0597d2a26597fcef3234b74553c645c40e"}
# The brute-force re-checks list every spanning tree, so they sample graphs
# of at most BRUTE_ORDER vertices (whole scan) and instances of at most
# BRUTE_EDGES edges before the addition.
BRUTE_ORDER = 7
BRUTE_EDGES = 16
BRUTE_SAMPLE = 2


def _random_connected(rng: random.Random, n: int, m: int) -> graphs.Graph:
    tree = set(trees.prufer_edges([rng.randrange(n) for _ in range(n - 2)], n))
    others = [e for e in combinations(range(n), 2) if e not in tree]
    return graphs.Graph.of(n, tree | set(rng.sample(others, m - (n - 1))))


def _corpus(seed: int, size: str) -> list[str]:
    p = SEARCH_SIZES[size]
    rng = random.Random(seed)
    lines = []
    for n in p["orders"]:
        for d in p["densities"]:
            m = max(n - 1, round(d * n * (n - 1) / 2))
            lines += [graphs.emit_graph6(_random_connected(rng, n, m))
                      for _ in range(p["per_cell"])]
    for i in range(p["malformed"]):
        text = graphs.emit_graph6(_random_connected(rng, 8, 12))
        lines.append((text[:-1], text[:1] + "!" + text[2:], text + "?")[i % 3])
    for _ in range(p["oversize"]):
        n = rng.choice((13, 14))
        lines.append(graphs.emit_graph6(_random_connected(rng, n, 2 * n)))
    for _ in range(p["disconnected"]):
        a, b = rng.choice((3, 4)), rng.choice((3, 4, 5))
        left, right = _random_connected(rng, a, a), _random_connected(rng, b, b)
        pairs = list(left.edges) + [(u + a, v + a) for u, v in right.edges]
        lines.append(graphs.emit_graph6(graphs.Graph.of(a + b, pairs)))
    rng.shuffle(lines)
    return lines


def _parsed(lines: list[str]):
    """(text, graph) for every line that parses."""
    for _, text, g in graphs.iter_graph6_lines(lines):
        if isinstance(g, graphs.Graph):
            yield text, g


def _sweep_summary(report) -> list:
    return [report.trees_checked, sorted(report.equalities.items()),
            sorted(report.paths.items()), len(report.violations), report.passed]


class SearchSweep(Workload):
    name = "search-sweep"
    why = ("seeded graph6 corpus of ~150 small dense graphs, then the 280k-tree bound sweep: "
           "many tiny Laplacians, few leaves; the only user of the graph6 codec and tree DP")

    def inputs(self, seed, size):
        p = SEARCH_SIZES[size]
        valid = len(p["orders"]) * len(p["densities"]) * p["per_cell"]
        return {"seed": seed, "lines": _corpus(seed, size), "sweep": p["sweep"],
                "valid": valid, "malformed": p["malformed"],
                "skipped": p["oversize"] + p["disconnected"], "sweep_ref": SWEEP_REF[size]}

    def run(self, inp):
        return (search.corpus_scan(inp["lines"]), search.tree_bound_sweep(inp["sweep"]))

    def encode(self, inp, result):
        report, sweep = result
        instances = [[i.order, i.graph_id, list(i.added), frac_out(i.mu_before),
                      frac_out(i.mu_after)] for i in report.instances]
        summary = _sweep_summary(sweep)
        return {
            "corpus": {"graphs_scanned": report.graphs_scanned, "instances": instances,
                       "errors": len(report.parse_errors), "skipped": len(report.skipped),
                       "digest": digest([report.graphs_scanned, report.instances,
                                         [list(e) for e in report.parse_errors],
                                         [list(e) for e in report.skipped]])},
            "sweep": {"trees_checked": sweep.trees_checked,
                      "equalities": summary[1], "paths": summary[2],
                      "violations": summary[3], "passed": sweep.passed,
                      "digest": digest(summary)},
        }

    def check(self, inp, record):
        c, t = record["corpus"], record["sweep"]
        ok_corpus = (c["graphs_scanned"] == inp["valid"] and c["errors"] == inp["malformed"]
                     and c["skipped"] == inp["skipped"]
                     and all(frac_in(i[4]) < frac_in(i[3]) for i in c["instances"]))
        n_max = inp["sweep"]
        ok_sweep = (t["trees_checked"] == sum(n ** max(0, n - 2) for n in range(1, n_max + 1))
                    and all(e == p == factorial(n) // 2
                            for (n, e), (_, p) in zip(t["equalities"], t["paths"]) if n >= 2)
                    and t["passed"] and t["violations"] == 0 and t["digest"] == inp["sweep_ref"])
        return [Check("corpus scan counts", ok_corpus,
                      f"{c['graphs_scanned']} scanned, {c['errors']} errors, {c['skipped']} skipped"),
                Check("tree-bound sweep", ok_sweep, f"{t['trees_checked']} trees")]

    def gate(self, inp, record):
        """By explicit subtree listing: redo the whole edge-addition scan of a
        seeded sample of small corpus graphs, and re-check a seeded sample of
        the instances found."""
        rng = random.Random(inp["seed"])
        insts = record["corpus"]["instances"]
        found: dict[str, list] = {}
        for _, text, e, before, after in insts:
            found.setdefault(text, []).append((tuple(e), frac_in(before), frac_in(after)))
        out = []
        brute_s = 0.0

        def brute_mean(g):
            nonlocal brute_s
            stats, dt = _timed(census.subtree_stats_bruteforce, g)
            brute_s += dt
            return census.mean(stats)

        small = sorted({text for text, g in _parsed(inp["lines"])
                        if g.order <= BRUTE_ORDER and g.is_connected()})
        for text in rng.sample(small, min(BRUTE_SAMPLE, len(small))):
            g = graphs.parse_graph6(text)
            mu0 = brute_mean(g)
            hits = [(e, mu0, mu1) for e in g.non_edges()
                    if (mu1 := brute_mean(g.add_edges([e]))) < mu0]
            ok = sorted(hits * inp["lines"].count(text)) == found.get(text, [])
            out.append(Check(f"scan of {text} by brute force", ok, f"{len(hits)} hits"))
        cheap = [i for i in insts if graphs.parse_graph6(i[1]).size <= BRUTE_EDGES]
        for _, text, (u, v), before, after in rng.sample(cheap, min(BRUTE_SAMPLE, len(cheap))):
            g = graphs.parse_graph6(text)
            ok = (brute_mean(g) == frac_in(before)
                  and brute_mean(g.add_edges([(u, v)])) == frac_in(after))
            out.append(Check(f"instance {text} + {u}-{v} by brute force", ok))
        return out, brute_s

    def cli_gates(self, inp, record):
        c, t = record["corpus"], record["sweep"]

        def compare_scan(payload):
            res = payload["results"]
            rows = [(r["order"], r["graph6"], r["edge"], _parse_rat(r["mu_before"]),
                     _parse_rat(r["mu_after"])) for r in payload["rows"]]
            want = [(o, g6, f"{u}-{v}", frac_in(b), frac_in(a))
                    for o, g6, (u, v), b, a in c["instances"]]
            ok = (res["graphs_scanned"] == c["graphs_scanned"] and rows == want
                  and len(payload["warnings"]) == c["errors"] + c["skipped"])
            return ok, f"{res['graphs_scanned']} scanned, {len(rows)} instances"

        def compare_sweep(payload):
            res = payload["results"]
            rows = [[r["n"], r["equalities"], r["paths"]] for r in payload["rows"]]
            want = [[n, e, p] for (n, e), (_, p) in zip(t["equalities"], t["paths"])]
            ok = (res["trees_checked"] == t["trees_checked"] and res["violations"] == 0
                  and rows == want)
            return ok, res["summary"]

        return [CliGate(["scan", "--file", "-", "--max-order", str(search.CORPUS_MAX)],
                        "\n".join(inp["lines"]) + "\n", compare_scan),
                CliGate(["tree-bound", "--n-max", str(inp["sweep"])], None, compare_sweep)]

    def counts(self, record):
        c = record["corpus"]
        return {"search.graphs_scanned": c["graphs_scanned"],
                "search.instances": len(c["instances"]),
                "search.warnings": c["errors"] + c["skipped"],
                "search.trees_checked": record["sweep"]["trees_checked"]}


# ---------------------------------------------------------------------------
# threshold: split vs bipartite crossing; fixed grid, ignores the seed.

# Expected n* and the sha256 of the (n, sign) comparison list per m,
# recorded from the package as first committed.
THRESHOLD_REF = {
    "full": {"n_max": 6000, "expect": {
        2: (6, "03d58d77f1d32593e8b8e1b4376645df6d123800e16b59ee31ea9a885c7dc3e4"),
        3: (5, "1a792ee275328c14c07ba0b3bed9a11d293d18636c52e6f9264a661131a57743"),
        4: (6, "03d58d77f1d32593e8b8e1b4376645df6d123800e16b59ee31ea9a885c7dc3e4"),
    }},
    "small": {"n_max": 200, "expect": {
        2: (6, "a51439689e5c97e825828eb5808cceebdb31eadf0ccdece786a7dc1a4ae26ee3"),
        3: (5, "788db4c9fb3121b154b314b862eb61924ec442b989055ca29ed48f35c615f30d"),
        4: (6, "a51439689e5c97e825828eb5808cceebdb31eadf0ccdece786a7dc1a4ae26ee3"),
    }},
}


def _mean_sign(m: int, n: int) -> int:
    """sign(mu(split) - mu(bipartite)) from the materialized host graphs."""
    ms = census.mean(census.subtree_stats_kirchhoff(graphs.make_complete_split(m, n)))
    mb = census.mean(census.subtree_stats_kirchhoff(graphs.make_complete_bipartite(m, n)))
    return (ms > mb) - (ms < mb)


class Threshold(Workload):
    name = "threshold"
    why = ("fixed grid (seed ignored): split vs bipartite threshold search, pure stem "
           "rational arithmetic with no census at all, so census changes must leave it unchanged")

    def inputs(self, seed, size):
        ref = THRESHOLD_REF[size]
        return {"ms": (2, 3, 4), "n_max": ref["n_max"], "expect": ref["expect"]}

    def run(self, inp):
        return [(m, stems.threshold_search(m, inp["n_max"])) for m in inp["ms"]]

    def encode(self, inp, result):
        return {"items": [{"m": m, "n_star": r.n_star, "persists": r.persists,
                           "first_violation": r.first_violation,
                           "digest": digest([list(c) for c in r.comparisons])}
                          for m, r in result]}

    def check(self, inp, record):
        out = []
        for item in record["items"]:
            n_star, ref = inp["expect"][item["m"]]
            ok = (item["n_star"] == n_star and item["persists"]
                  and item["first_violation"] is None and item["digest"] == ref)
            out.append(Check(f"m={item['m']} threshold", ok, f"n* = {item['n_star']}"))
        return out

    def gate(self, inp, record):
        """The crossing itself, from subtree censuses of the host graphs."""
        out = []
        for item in record["items"]:
            m, n = item["m"], item["n_star"]
            ok = n is not None and n >= 2 and _mean_sign(m, n) < 0 <= _mean_sign(m, n - 1)
            out.append(Check(f"m={m} crossing at n*={n} by Kirchhoff census", ok))
        return out, 0.0

    def cli_gates(self, inp, record):
        gates = []
        for item in record["items"]:
            def compare(payload, item=item):
                res = payload["results"]
                ok = (res["n_star"] == item["n_star"] and res["persists"] == item["persists"]
                      and res["first_violation"] == item["first_violation"])
                return ok, f"n* = {res['n_star']}"
            gates.append(CliGate(["threshold", "--m", str(item["m"]),
                                  "--n-max", str(inp["n_max"])], None, compare))
        return gates


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (DecreaseScan(), BroomCensus(), SearchSweep(), Threshold())}
