#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/selftest.py [--workloads certify,rescore,contention]

Run from the root of a checkout; takes a few minutes per workload. Checks:

1. the verdict digest is identical at 1 and 3 sweep workers;
2. the traced run reproduces the untraced verdict digest;
3. an altered committed row is reported as a failed verdict;
4. every metric name the benchmark prints is in BENCHMARK.json, and every
   metric there is printed.

Exits non-zero and names the failed checks when any fails.
"""

import argparse
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 42  # the committed seed, so verdicts are checked against bench_out/

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, *extra):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None
    out = {"result": json.loads(lines[-1]), "printed": {}}
    for line in lines:
        if m := re.match(r"(traced )?verdict digest (\w+)", line):
            out["traced_digest" if m.group(1) else "digest"] = m.group(2)
        if m := re.match(r"\s*(end_to_end|per_layer)\s+(\S+)\s+\S+\s+(\S+)$",
                         line):
            out["printed"].setdefault(m.group(1), {})[m.group(2)] = m.group(3)
    return out


def names_match(out, spec, trace):
    """Printed names and units, and reported metrics, equal BENCHMARK.json."""
    groups = ["end_to_end"] + (["per_layer"] if trace else [])
    ok = all(out["printed"].get(g) == {m["name"]: m["unit"] for m in spec[g]}
             for g in groups)
    reported = spec["per_layer" if trace else "end_to_end"]
    return ok and set(out["result"]["metrics"]) == {m["name"]
                                                    for m in reported}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="certify,rescore,contention")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    for wl in args.workloads.split(","):
        traced = run(wl, "--seconds", "1", "--trace", "1")
        check(traced is not None and traced["result"]["correct"],
              f"{wl}: traced run at 3 workers is correct")
        one = run(wl, "--seconds", "1", "--trace", "0", "--workers", "1")
        check(one is not None and one["result"]["correct"],
              f"{wl}: untraced run at 1 worker is correct")
        if traced is None or one is None:
            continue
        check(traced["digest"] == one["digest"],
              f"{wl}: verdict digest equal at 1 and 3 workers")
        check(traced["digest"] == traced.get("traced_digest"),
              f"{wl}: traced digest equals untraced digest")
        check(names_match(traced, spec, True) and names_match(one, spec, False),
              f"{wl}: printed metric names are those of BENCHMARK.json")

    # A committed row that no longer matches must fail exactly its verdict.
    altered = ROOT / ".bench_build" / "selftest-expected"
    shutil.rmtree(altered, ignore_errors=True)
    shutil.copytree(ROOT / "bench_out", altered,
                    ignore=shutil.ignore_patterns("cache", "manifests"))
    csv_path = altered / "ext_contention.csv"
    text = csv_path.read_text()
    row = "quiche cubic,4,0.0577,"
    check(row in text, "committed ext_contention.csv holds quiche cubic K=4")
    csv_path.write_text(text.replace(row, "quiche cubic,4,0.0578,"))
    out = run("contention", "--seconds", "1", "--trace", "0",
              "--expected-dir", str(altered))
    shutil.rmtree(altered, ignore_errors=True)
    check(out is not None and not out["result"]["correct"]
          and out["result"]["failed"] == 1,
          "an altered committed row fails exactly one verdict")

    if failures:
        sys.exit(f"{len(failures)} self-test(s) failed")
    print("all self-tests passed")


if __name__ == "__main__":
    main()
