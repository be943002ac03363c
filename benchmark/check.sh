#!/usr/bin/env bash
# Self-check of the benchmark, run from anywhere inside the repository:
#   1. builds the package offline;
#   2. runs every workload twice untraced (seed 1) and once traced (seed 2, so
#      a second seed is exercised);
#   3. validates every printed result line against the name lists of
#      BENCHMARK.json (no metric missing, none extra, names well-formed);
#   4. prints the A/A table: per workload x end-to-end metric, run 1, run 2,
#      how much worse run 2 read, the bound, PASS/FAIL.
# Takes about seven minutes on 2 vCPU. Exits non-zero on any FAIL.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="benchmark/out/check"
mkdir -p "$out"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"

"${bench[@]}" --all --seed 1 --seconds "$seconds" --trace 0 >"$out/run1.jsonl"
"${bench[@]}" --all --seed 1 --seconds "$seconds" --trace 0 >"$out/run2.jsonl"
"${bench[@]}" --all --seed 2 --seconds "$seconds" --trace 1 >"$out/traced.jsonl"

python3 - "$out" <<'PY'
import json, re, sys

out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]
well_formed = re.compile(r"[A-Za-z0-9_.-]+")
failures = []

def results(path, expected):
    """One result line per workload, in BENCHMARK.json order; names checked."""
    lines = [json.loads(line) for line in open(path) if line.strip()]
    if len(lines) != len(workloads):
        failures.append(f"{path}: {len(lines)} result lines for {len(workloads)} workloads")
    names = [m["name"] for m in expected]
    units = {m["name"]: m["unit"] for m in expected}
    for workload, line in zip(workloads, lines):
        if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
            failures.append(f"{path} {workload}: keys {sorted(line)}")
        if not line["correct"] or line["failed"] != 0 or line["attempted"] < 1:
            failures.append(f"{path} {workload}: {line['failed']} of {line['attempted']} failed")
        got = line["metrics"]
        for name in names:
            if name not in got:
                failures.append(f"{path} {workload}: missing {name}")
            elif got[name]["unit"] != units[name]:
                failures.append(f"{path} {workload}: {name} in {got[name]['unit']}, not {units[name]}")
        for name in got:
            if name not in units:
                failures.append(f"{path} {workload}: extra {name}")
            if not well_formed.fullmatch(name):
                failures.append(f"{path} {workload}: malformed name {name!r}")
    return lines

run1 = results(f"{out}/run1.jsonl", spec["end_to_end"])
run2 = results(f"{out}/run2.jsonl", spec["end_to_end"])
results(f"{out}/traced.jsonl", spec["per_layer"])

print(f"{'workload':<20}{'metric':<18}{'run 1':>14}{'run 2':>14}{'worse by':>10}{'bound':>8}  verdict")
for workload, a, b in zip(workloads, run1, run2):
    for m in spec["end_to_end"]:
        x, y = a["metrics"][m["name"]]["value"], b["metrics"][m["name"]]["value"]
        worse = (y - x) / x if m["better"] == "lower" else (x - y) / x
        verdict = "PASS" if worse <= m["bound"] else "FAIL"
        if verdict == "FAIL":
            failures.append(f"A/A {workload} {m['name']}: run 2 worse by {worse:.1%} > {m['bound']:.1%}")
        print(f"{workload:<20}{m['name']:<18}{x:>14.4f}{y:>14.4f}{worse:>+10.1%}{m['bound']:>8.1%}  {verdict}")

for failure in failures:
    print("FAIL", failure)
sys.exit(1 if failures else 0)
PY
