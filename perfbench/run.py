#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload certify|rescore|contention \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (and the quicbench
libraries under src/) into .bench_build/, runs one workload in a fresh
process with a fresh cache directory, checks its verdicts, prints every
metric by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. At the committed seed (42) every verdict is also compared
with the committed bench_out/ row it reproduces, formatted at the CSV's
precision; a verdict that differs counts as failed.
"""

import argparse
import csv
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "cmake" / "perfbench"

# Seed of the committed bench_out/ CSVs.
COMMITTED_SEED = 42
# Key columns of each committed CSV a verdict can reproduce.
CSV_KEYS = {
    "fig06": ("stack", "cca", "buffer_bdp"),
    "table3": ("stack", "cca"),
    "ext_contention": ("test", "k"),
}
# One run must finish well inside 180 s.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build; both are quick no-ops when nothing changed."""
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD / "cmake"),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
        subprocess.run(
            ["cmake", "--build", str(BUILD / "cmake"), "-j", "4",
             "--target", "perfbench"],
            check=True, stdout=sys.stderr)


def committed_rows(expected_dir):
    rows = {}
    for name, keys in CSV_KEYS.items():
        path = expected_dir / f"{name}.csv"
        if not path.exists():
            continue
        with open(path, newline="") as f:
            for row in csv.DictReader(f):
                rows[(name,) + tuple(row[k] for k in keys)] = row
    return rows


def row_mismatches(verdict, rows):
    """Every way `verdict` differs from the committed rows it reproduces."""
    out = []
    for check in verdict["rows"]:
        committed = rows.get((check["csv"],) + tuple(check["key"]))
        if committed is None:
            out.append(f"no committed {check['csv']} row {check['key']}")
            continue
        for col, value in check["values"].items():
            if committed.get(col) != value:
                out.append(f"{check['csv']} {check['key']} {col}: "
                           f"{value} != committed {committed.get(col)}")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workers", type=int, default=3,
                    help="sweep workers (default 3: one core left to the "
                         "host on a 4-vCPU machine)")
    ap.add_argument("--expected-dir", type=Path, default=ROOT / "bench_out",
                    help="committed CSVs to compare with at seed 42")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"unknown workload {args.workload!r}")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"building perfbench failed: {e}")

    work = BUILD / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        proc = subprocess.run(
            [str(BINARY), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work-dir", str(work),
             "--workers", str(args.workers)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    else:
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            sys.exit(f"perfbench exited with {proc.returncode}")
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    groups = ["end_to_end"] + (["per_layer"] if args.trace else [])
    for group in groups:
        declared = {m["name"] for m in spec[group]}
        if set(result[group]) != declared:
            sys.exit(f"{group} metrics differ from BENCHMARK.json: "
                     f"{sorted(set(result[group]) ^ declared)}")

    problems = list(result["failures"])
    check_rows = args.seed == COMMITTED_SEED
    rows = committed_rows(args.expected_dir) if check_rows else {}
    failed = 0
    for v in result["verdicts"]:
        bad = row_mismatches(v, rows) if check_rows else []
        if bad:
            failed += 1
            problems += [f"{v['label']}: {b}" for b in bad]

    print(f"verdict digest {result['digest']}, set-up digest "
          f"{result['setup_digest']}, netsim.events {result['events']}")
    if "traced_digest" in result:
        print(f"traced verdict digest {result['traced_digest']}")
    print(f"samples: {json.dumps(result['samples'])}")
    for group in groups:
        for m in spec[group]:
            print(f"{group:>10}  {m['name']:<32} "
                  f"{result[group][m['name']]:>16.6g} {m['unit']}")
    reported = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": result[reported][m["name"]],
                           "unit": m["unit"]}
               for m in spec[reported]}
    for p in problems:
        log(f"FAILED: {p}")

    print(json.dumps({
        "correct": not problems,
        "attempted": len(result["verdicts"]),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
