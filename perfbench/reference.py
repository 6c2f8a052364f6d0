#!/usr/bin/env python3
"""Regenerate the reference figures in perfbench/reference/.

    python3 perfbench/reference.py run        # all runs, then the summary (about 45 minutes)
    python3 perfbench/reference.py summary    # summary only, from reference/runs.json

``run`` makes two sets of untraced runs on every workload, ten seeds each
(set A seeds 1-10, set B seeds 101-110), then two traced runs per workload
with seed 1, one at a time, and writes every result to reference/runs.json.
``summary`` writes reference/summary.md: per set and workload the median
and quartiles of each end-to-end metric, the quartile spread as a share of
the median against the bound in BENCHMARK.json, the change of median from
set A to set B, and the per-layer metrics of both traced runs.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REF = HERE / "reference"
SETS = {"A": range(1, 11), "B": range(101, 111)}
TRACE_SEED = 1


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all() -> None:
    spec = _spec()
    REF.mkdir(exist_ok=True)
    runs = []
    jobs = [(s, w["name"], seed, 0) for s, seeds in SETS.items() for w in spec["workloads"] for seed in seeds]
    jobs += [(f"trace{i}", w["name"], TRACE_SEED, 1) for i in (1, 2) for w in spec["workloads"]]
    for i, (label, workload, seed, trace) in enumerate(jobs, 1):
        result = _run(spec, workload, seed, trace)
        runs.append({"set": label, "workload": workload, "seed": seed, "trace": trace, "result": result})
        print(f"[{i}/{len(jobs)}] {label} {workload} seed {seed}: attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}", flush=True)
        (REF / "runs.json").write_text(json.dumps(runs, indent=1) + "\n")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize() -> None:
    spec = _spec()
    runs = json.loads((REF / "runs.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    out = ["# Reference figures", "",
           f"`python3 perfbench/reference.py run`, run_seconds = {spec['run_seconds']}.", ""]
    verdicts = []
    for w in (w["name"] for w in spec["workloads"]):
        out += [f"## {w}", "",
                "| metric | set | median | q1 | q3 | spread | bound | attempted/run | failed share |",
                "|---|---|---|---|---|---|---|---|---|"]
        medians = {}
        for s in SETS:
            rs = [r["result"] for r in runs if r["set"] == s and r["workload"] == w]
            if not rs:
                continue
            att = [r["attempted"] for r in rs]
            shares = {r["failed"] / r["attempted"] for r in rs}
            for name in bounds:
                vals = [r["metrics"][name]["value"] for r in rs]
                q1, med, q3 = _quartiles(vals)
                spread = (q3 - q1) / med
                medians[(s, name)] = med
                out.append(f"| {name} | {s} | {med:.5g} | {q1:.5g} | {q3:.5g} | {spread:.3f} | {bounds[name]} "
                           f"| {min(att)}-{max(att)} | {', '.join(f'{x:.4f}' for x in sorted(shares))} |")
                if name != "setup_s" and spread > bounds[name]:
                    verdicts.append(f"{w} {name} set {s}: spread {spread:.3f} above bound {bounds[name]}")
                elif name != "setup_s" and spread > bounds[name] / 3:
                    verdicts.append(f"{w} {name} set {s}: spread {spread:.3f} within bound {bounds[name]}, "
                                    "but above a third of it")
        for name in bounds:
            if ("A", name) in medians and ("B", name) in medians:
                a, b = medians[("A", name)], medians[("B", name)]
                worse = (b - a) / a if better[name] == "lower" else (a - b) / a
                out.append(f"| {name} | B vs A | {100 * (b / a - 1):+.1f} % | | | | | | |")
                if worse > bounds[name]:
                    verdicts.append(f"{w} {name}: set B median worse by {worse:.3f}, bound {bounds[name]}")
        out.append("")
        traced = [r for r in runs if r["trace"] == 1 and r["workload"] == w]
        if traced:
            out += [f"Traced runs (seed {TRACE_SEED}), per request:", "",
                    "| layer metric | unit | " + " | ".join(r["set"] for r in traced) + " |",
                    "|---|---|" + "---|" * len(traced)]
            for name, m in traced[0]["result"]["metrics"].items():
                vals = " | ".join(f"{r['result']['metrics'][name]['value']:.6g}" for r in traced)
                out.append(f"| {name} | {m['unit']} | {vals} |")
                if m["unit"] in ("count", "bytes") and len({r["result"]["metrics"][name]["value"] for r in traced}) > 1:
                    verdicts.append(f"{w} {name}: count differs between traced runs")
            out.append("")
    out += ["## Verdict", ""] + ([f"- {v}" for v in verdicts] or ["- every spread within its bound; set B within bound of set A"])
    (REF / "summary.md").write_text("\n".join(out) + "\n")
    print("\n".join(out))


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else "summary"
    if what == "run":
        run_all()
    elif what != "summary":
        raise SystemExit(__doc__)
    summarize()
