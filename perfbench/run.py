"""Benchmark of the subtree-census package.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|small]

Run from the repository root; the package is taken from `src/`.  Every run
of a workload happens in a fresh child process (one caller, closed loop,
jobs=1), so each pays the cold package caches just as every CLI invocation
does.  One invocation measures one workload:

1. a warm-up child (byte-code caches), then `SETUP_RUNS` children that only
   build the inputs: set-up time;
2. timed children, back to back, until `--seconds` have passed and at least
   `MIN_TIMED` have run: wall time and peak RSS of each;
3. exact checks of every child's result, independent-route gates on the
   first result, and the matching `subtree-census --deterministic` commands
   (all outside the timed region);
4. with `--trace 1`, one more child with spans at the layer boundaries.

The last line of stdout is one JSON object: `correct` (no produced output
disagreed with its reference), `attempted` (distinct checks; the same number
on every run of a workload), `failed` (checks that found a wrong result or
no result on any child) and `metrics`, the end-to-end metrics with
`--trace 0` and the per-layer metrics with `--trace 1`.  With
`--workload all` each workload prints its own summary and JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 7
MIN_TIMED = 3
CHILD_TIMEOUT = 120

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "graphs.parse_s": "s", "graphs.build_s": "s",
    "census.kirchhoff_s": "s", "census.kirchhoff_calls": "count",
    "census.subsets": "count", "census.us_per_subset": "us",
    "census.enumerate_s": "s", "census.bareiss_ops": "count",
    "census.marked_s": "s", "census.marked_calls": "count",
    "census.required_s": "s", "census.bruteforce_s": "s",
    "census.attach_s": "s", "census.attach_calls": "count",
    "census.attach_max_bits": "bits", "census.mean_s": "s", "census.mean_calls": "count",
    "trees.prufer_s": "s", "trees.dp_s": "s", "trees.trees": "count",
    "families.scan_s": "s", "families.core_census_s": "s",
    "families.points": "count", "families.witnesses": "count",
    "stems.mean_s": "s", "stems.mean_calls": "count",
    "stems.stem_count_s": "s", "stems.max_bits": "bits",
    "search.corpus_s": "s", "search.sweep_s": "s", "search.graphs_scanned": "count",
    "search.instances": "count", "search.warnings": "count", "search.trees_checked": "count",
    "cli.gate_s": "s", "cli.gate_runs": "count", "cli.gate_failed": "count",
    "trace.overhead_frac": "fraction",
}


class ChildError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(name: str, seed: int, size: str, mode: str) -> dict:
    """Run one child to completion and return its report."""
    cmd = [sys.executable, str(HERE / "child.py"), name, str(seed), size, mode]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildError(f"{mode} child exited {proc.returncode}: {tail[0]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out["ready"] - start
    return out


def run_cli(gate, label: str):
    """One `subtree-census --deterministic` command in a fresh process."""
    from workloads import Check
    cmd = [sys.executable, "-m", "subtree_census.cli", "--deterministic", "--jobs", "1",
           *gate.argv]
    proc = subprocess.run(cmd, input=gate.stdin, capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return Check(label, None, f"exit {proc.returncode}: {tail[0]}")
    try:
        ok, detail = gate.compare(json.loads(proc.stdout))
    except (KeyError, TypeError, ValueError) as exc:
        ok, detail = False, f"unreadable output: {exc!r}"
    return Check(label, ok, detail)


# Span names whose self time (`<name>_s`) or call count (`<name>_calls`) is
# a per-layer metric, and the exact counts a workload reads off its result.
SPAN_TIMES = ("graphs.parse", "graphs.build", "census.kirchhoff", "census.marked",
              "census.required", "census.attach", "census.mean", "trees.prufer", "trees.dp",
              "families.scan", "families.core_census", "stems.mean", "stems.stem_count",
              "search.corpus", "search.sweep")
SPAN_CALLS = ("census.kirchhoff", "census.marked", "census.attach", "census.mean", "stems.mean")
RESULT_COUNTS = ("families.points", "families.witnesses", "search.graphs_scanned",
                 "search.instances", "search.warnings", "search.trees_checked")


def per_layer(wl, traced: dict, walls: list[float], brute_s: float,
              cli_s: float, cli_checks: list) -> dict:
    import spans
    selfs, calls = spans.self_times(traced["trace"])
    bits = traced["trace"]["max_bits"]
    probe = traced["probe"]
    census_s = sum(selfs.get(k, 0.0) for k in ("census.kirchhoff", "census.marked",
                                               "census.required"))
    values = {f"{name}_s": selfs.get(name, 0.0) for name in SPAN_TIMES}
    values.update({f"{name}_calls": calls[name] for name in SPAN_CALLS})
    values.update(dict.fromkeys(RESULT_COUNTS, 0))
    values.update(wl.counts(traced["record"]))
    values.update({
        "census.subsets": probe["subsets"],
        "census.us_per_subset": census_s * 1e6 / probe["subsets"] if probe["subsets"] else 0.0,
        "census.enumerate_s": probe["enumerate_s"],
        "census.bareiss_ops": probe["bareiss_ops"],
        "census.bruteforce_s": brute_s,
        "census.attach_max_bits": bits.get("census.attach", 0),
        "stems.max_bits": bits.get("stems.mean", 0),
        "trees.trees": calls["trees.dp"],
        "cli.gate_s": cli_s,
        "cli.gate_runs": len(cli_checks),
        "cli.gate_failed": sum(1 for c in cli_checks if not c.ok),
        "trace.overhead_frac": traced["wall_s"] / statistics.median(walls) - 1.0,
    })
    if values.keys() != PER_LAYER.keys():
        raise ValueError(f"per-layer metrics out of step: {values.keys() ^ PER_LAYER.keys()}")
    return values


def measure(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    from workloads import WORKLOADS, Check
    wl = WORKLOADS[name]
    inp = wl.inputs(seed, size)

    spawn(name, seed, size, "setup")  # warm-up, not measured
    setups = [spawn(name, seed, size, "setup")["setup_s"] for _ in range(SETUP_RUNS)]
    runs: list[dict] = []
    crashes: list[str] = []
    start = time.perf_counter()
    while len(runs) + len(crashes) < MIN_TIMED or time.perf_counter() - start < seconds:
        try:
            runs.append(spawn(name, seed, size, "time"))
        except (ChildError, subprocess.TimeoutExpired) as exc:
            crashes.append(str(exc))
    traced = spawn(name, seed, size, "trace") if trace else None
    if not runs:
        raise ChildError("no timed run finished")

    # Each check is one operation however many children ran, so `attempted`
    # does not depend on how many timed runs fit into `--seconds`: a check
    # fails if it fails on any child.
    results = runs + ([traced] if traced else [])
    first = runs[0]["record"]
    checks = [Check("every timed run finished", None if crashes else True,
                    "; ".join(crashes)),
              Check("same result in every run", all(r["record"] == first for r in results),
                    f"{len(results)} runs")]
    per_run = [wl.check(inp, r["record"]) for r in results]
    checks += [next((c for c in cs if not c.ok), cs[0]) for cs in zip(*per_run)]
    gate_checks, brute_s = wl.gate(inp, first)
    checks += gate_checks
    cli_checks = []
    cli_start = time.perf_counter()
    for gate in wl.cli_gates(inp, first):
        cli_checks.append(run_cli(gate, "subtree-census " + " ".join(gate.argv)))
    cli_s = time.perf_counter() - cli_start
    checks += cli_checks

    walls = [r["wall_s"] for r in runs]
    for c in checks:
        if not c.ok:
            kind = "wrong result" if c.ok is False else "no result"
            print(f"{name}: {kind}: {c.label}: {c.detail}", file=sys.stderr)
    failed = sum(1 for c in checks if not c.ok)
    summary = {
        "workload": name, "seed": seed, "size": size,
        "setup_s": statistics.median(setups + [r["setup_s"] for r in runs]),
        "setup_samples": len(setups) + len(runs),
        "wall_s": statistics.median(walls), "walls_s": walls,
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in runs) / 1024,
        "error_rate": failed / len(checks),
    }
    print("summary " + json.dumps(summary))
    if trace:
        metrics = per_layer(wl, traced, walls, brute_s, cli_s, cli_checks)
        units = PER_LAYER
        out_dir = HERE / "traces"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"{name}-seed{seed}-{size}.json", "w") as fh:
            json.dump(traced["trace"], fh)
    else:
        metrics = {k: summary[k] for k in END_TO_END}
        units = END_TO_END
    return {"correct": not any(c.ok is False for c in checks),
            "attempted": len(checks), "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


def environment() -> dict:
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "int_max_str_digits": get_limit() if get_limit else None}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    args = parser.parse_args(argv)
    if not (SRC / "subtree_census" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload; choose from {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    print("environment " + json.dumps(environment()))
    for name in names:
        try:
            result = measure(name, args.seed, args.seconds, bool(args.trace), args.size)
        except (ChildError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
