#!/usr/bin/env python3
"""Closed-loop, in-process benchmark of the ``fhpt`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A request is one call of ``fhpt.cli.main(argv)`` in this process, with
stdout and stderr captured in memory; one client thread sends the next
request when the previous one returns.  The program is imported from
``src/`` next to this directory.  Workloads are described in
``perfbench/workloads.py`` and in the README.

``--trace 0`` measures set-up (the median of several fresh-interpreter
imports of ``fhpt``), sends a warm-up outside the timed set, then sends whole
rounds of requests until ``--seconds`` have passed; on verify-sweep it sends
a fixed number of rounds set by ``--seconds`` instead (see FIXED_ROUNDS).
Every time it reports is rescaled to the reference speed of the fixed
calibration kernel in ``calibrate.py``, timed between requests (see Loop).
``--trace 1`` sends a fixed number of rounds, set by ``--seconds``, once
untraced in a child process and once with every layer span recorded, and
reports the per-layer metrics and the tracing overhead.  Every output is
checked against independent references after timing ends.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_IMPORTS = 7
# times `import fhpt`, then the calibration kernel in the same interpreter
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import fhpt; t = time.perf_counter() - t; "
    "sys.path.insert(0, sys.argv[2]); import calibrate; calibrate.kernel(); "
    "print(repr(t), repr(calibrate.calibrate()))"
)
# wall seconds of requests between two calibrations; a verify-sweep request
# is longer, so there every request is calibrated on both sides
CAL_INTERVAL = 0.25

# Seconds of --seconds budgeted per round.  The traced run sends
# ceil(TRACE_SHARE * seconds / ROUND_SECONDS) rounds, a count that depends on
# --seconds only, so two traced runs with one seed repeat every count exactly.
# A verify-sweep round takes about 8.3 s here and a run holds only four;
# each request adds about 0.4 MB of K-grids to the program's cache, so a
# clock-bounded run would move peak_rss_mb whenever machine speed pushed it
# across a round boundary.  Untraced verify-sweep runs therefore send
# ceil(seconds / ROUND_SECONDS) rounds; the other workloads stop on the clock.
ROUND_SECONDS = {"verify-sweep": 8.5, "verify-repeat": 0.26, "cli-tables": 0.04}
# scalar type of the calibration kernel's series (see calibrate.py): cold
# K-grids call bessel_k on numpy scalars, every other request on floats
CAL_SCALARS = {"verify-sweep": "numpy", "verify-repeat": "float", "cli-tables": "float"}
FIXED_ROUNDS = {"verify-sweep"}
TRACE_SHARE = 0.5

# spans each workload must enter; a traced run that misses one fails
EXPECTED_SPANS = {
    "verify-sweep": (
        "special.bessel_k", "special.bessel_k.x_gt_2", "special.bessel_k.int_order",
        "special.bessel_k.near_int", "special.bessel_k.generic", "special.gegenbauer",
        "quadrature.gauss_legendre", "quadrature.k_integral", "model.basis", "model.eval_state",
        "model.overlap", "model.residual_ode", "algebra.ladder", "algebra.commutator",
        "coherent.resolution", "checks.run_checks", "cli.main",
    ),
    "verify-repeat": (
        "special.bessel_k", "special.gegenbauer", "quadrature.k_integral", "model.basis",
        "model.eval_state", "model.overlap", "model.residual_ode", "algebra.ladder",
        "algebra.commutator", "coherent.resolution", "checks.run_checks", "cli.main",
    ),
    "cli-tables": (
        "special.bessel_i", "special.gegenbauer", "model.basis", "model.eval_state",
        "coherent.build", "coherent.expectation", "cli.main",
    ),
}


def _unit(name: str) -> str:
    for suffix, unit in (("per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("us_per_eval", "us"),
                         ("_pct", "%"), ("bytes_out", "bytes"), ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "count"


def _log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def locate_program():
    """Import fhpt.cli from src/ beside the benchmark, and from nowhere else."""
    pkg = SRC / "fhpt"
    if not (pkg / "cli.py").is_file():
        _log(f"no fhpt sources at {pkg}")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import fhpt.cli

    if Path(fhpt.cli.__file__).resolve().parent != pkg.resolve():
        _log(f"imported fhpt from {fhpt.cli.__file__}, not from {pkg}")
        sys.exit(2)
    return fhpt.cli


def measure_setup() -> tuple[float, float]:
    """Median seconds of `import fhpt`, each timed inside a fresh interpreter:
    (rescaled to the calibration's reference speed, raw)."""
    scaled, raw = [], []
    for _ in range(SETUP_IMPORTS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            _log(f"import probe failed: {proc.stderr.strip()}")
            sys.exit(2)
        t, cal = (float(v) for v in proc.stdout.split())
        raw.append(t)
        scaled.append(t * calibrate.REFERENCE_S["float"] / cal)
    return statistics.median(scaled), statistics.median(raw)


def request(cli, argv: list[str]) -> tuple[int | None, int, str, str]:
    """One call of main(argv): (exit code or None if it raised, ns, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        try:
            rc = cli.main(argv)
        except Exception:  # the benchmark keeps running; the traceback is checked as output
            rc = None
            traceback.print_exc()
        t1 = time.perf_counter_ns()
    return rc, t1 - t0, out.getvalue(), err.getvalue()


class Loop:
    """Sends whole rounds of requests and spools each output for the checks.

    The machine's speed drifts in phases of seconds, so the loop times the
    calibration kernel before the first request, after the last, and
    between requests whenever CAL_INTERVAL seconds of requests have passed.
    Each request time, and each stretch of loop time, is rescaled by
    REFERENCE_S over the mean of the calibrations on either side of it:
    ``latency_ms`` and ``elapsed`` read as if the kernel had taken
    REFERENCE_S throughout.  Calibration time is left out of ``elapsed``.
    """

    def __init__(self, cli, gen, spool, tracer=None):
        self.cli, self.gen, self.spool, self.tracer = cli, gen, spool, tracer
        self.scalars = CAL_SCALARS[gen.name]
        self.reference_s = calibrate.REFERENCE_S[self.scalars]
        self.latency_ns: list[int] = []
        self.latency_ms: list[float] = []
        self.calibrations: list[float] = []
        self.bytes_out = 0
        self.elapsed = 0.0
        self.raw_elapsed = 0.0

    def _calibrate(self, stretch_s: float) -> None:
        """Calibrate, then rescale the requests and loop time since the last calibration."""
        cal = calibrate.calibrate(self.scalars)
        scale = self.reference_s / (0.5 * (self.calibrations[-1] + cal))
        self.calibrations.append(cal)
        self.latency_ms += [ns / 1e6 * scale for ns in self.latency_ns[len(self.latency_ms):]]
        self.elapsed += stretch_s * scale
        self.raw_elapsed += stretch_s

    def run(self, seconds: float, rounds: int | None = None) -> None:
        """Send whole rounds until `seconds` have passed, or exactly `rounds` rounds if given."""
        gc.collect()
        self.calibrations.append(calibrate.calibrate(self.scalars))
        t0 = stretch = time.perf_counter()
        done = 0
        while True:
            for cls, argv in self.gen.next_round():
                now = time.perf_counter()
                if now - stretch >= CAL_INTERVAL:
                    self._calibrate(now - stretch)
                    stretch = time.perf_counter()
                if self.tracer is not None:
                    self.tracer.current_request = len(self.latency_ns)
                rc, ns, out, err = request(self.cli, argv)
                self.latency_ns.append(ns)
                self.bytes_out += len(out.encode())
                self.spool.write(json.dumps([cls, argv, rc, out, err]) + "\n")
            done += 1
            if done == rounds or (rounds is None and time.perf_counter() - t0 >= seconds):
                break
        self._calibrate(time.perf_counter() - stretch)

    def speed(self) -> float:
        """The machine's median speed in this loop, as a multiple of the reference speed."""
        return self.reference_s / statistics.median(self.calibrations)


def check_outputs(spool_path: Path) -> tuple[int, int, list[str], dict[str, int]]:
    """(attempted, failed, reasons for wrong outputs, requests per class)."""
    import oracle  # scipy is imported only after timing ends

    attempted = failed = 0
    wrong: list[str] = []
    classes: dict[str, int] = {}
    with open(spool_path, encoding="utf-8") as f:
        for line in f:
            cls, argv, rc, out, err = json.loads(line)
            attempted += 1
            classes[cls] = classes.get(cls, 0) + 1
            if rc != 0:
                failed += 1
            reason = oracle.check(argv, rc, out, err, known_fault=(cls == "fault"))
            if reason is not None:
                wrong.append(f"{' '.join(argv)}: {reason}")
    return attempted, failed, wrong, classes


def latency_metrics(lat_ms: list[float], elapsed: float) -> dict[str, float]:
    lat = sorted(lat_ms)
    n = len(lat)
    p50 = statistics.median(lat)
    # highest percentile with at least 10 requests beyond it; below 40
    # requests there is no such tail and the median stands in for it
    tail = lat[n - 11] if n >= 40 else p50
    return {"request_p50_ms": p50, "request_tail_ms": tail, "requests_per_s": n / elapsed}


def _result(correct: bool, attempted: int, failed: int, metrics: dict[str, float]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    })


def _report_checks(wrong: list[str], classes: dict[str, int]) -> None:
    _log("requests per class: " + ", ".join(f"{k}={v}" for k, v in sorted(classes.items())))
    for w in wrong[:20]:
        _log(f"WRONG OUTPUT {w}")


def warm_up(cli, gen) -> None:
    for argv in gen.warmup():
        rc, _, _, err = request(cli, argv)
        if rc != 0:
            _log(f"warm-up {' '.join(argv)} exited {rc}: {err.strip()}")
            sys.exit(1)


def run_untraced(cli, gen, workload: str, seconds: float, rounds: int | None, spool_path: Path,
                 with_setup: bool) -> str:
    setup_s, raw_setup_s = measure_setup() if with_setup else (None, None)
    warm_up(cli, gen)
    with open(spool_path, "w", encoding="utf-8") as spool:
        loop = Loop(cli, gen, spool)
        loop.run(seconds, rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, wrong, classes = check_outputs(spool_path)
    _report_checks(wrong, classes)
    metrics = {}
    if setup_s is not None:
        metrics["setup_s"] = setup_s
    metrics.update(latency_metrics(loop.latency_ms, loop.elapsed))
    metrics["peak_rss_mb"] = peak_rss_mb
    raw = latency_metrics([ns / 1e6 for ns in loop.latency_ns], loop.raw_elapsed)
    if raw_setup_s is not None:
        raw["setup_s"] = raw_setup_s
    _log(f"{workload}: {attempted} requests in {loop.raw_elapsed:.1f} s, {failed} failed, "
         + ", ".join(f"{k}={v:.4g}" for k, v in metrics.items()))
    _log(f"unscaled: {len(loop.calibrations)} calibrations, machine at {loop.speed():.3f}x the "
         "reference speed, " + ", ".join(f"{k}={v:.4g}" for k, v in raw.items()))
    return _result(not wrong, attempted, failed, metrics)


def fixed_rounds(workload: str, seconds: float) -> int:
    return max(1, math.ceil(seconds / ROUND_SECONDS[workload]))


def run_traced(cli, gen, workload: str, seed: int, seconds: float, spool_path: Path) -> str:
    import spans

    rounds = fixed_rounds(workload, TRACE_SHARE * seconds)
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--rounds", str(rounds)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if child.returncode != 0:
        _log(f"untraced pass failed: {child.stderr.strip()}")
        sys.exit(1)
    untraced = json.loads(child.stdout.strip().splitlines()[-1])
    untraced_p50 = untraced["metrics"]["request_p50_ms"]["value"]

    warm_up(cli, gen)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with open(spool_path, "w", encoding="utf-8") as spool:
            loop = Loop(cli, gen, spool, tracer)
            loop.run(seconds, rounds)
    finally:
        tracer.uninstall()
    n = len(loop.latency_ns)
    arrays = tracer.arrays()
    metrics, entries = spans.layer_metrics(arrays, n)
    # span times are rescaled by the loop's median calibration, like the
    # end-to-end times; the kernel's own median time is reported beside them
    for name in metrics:
        if name.endswith(("_ms", "us_per_eval")):
            metrics[name] *= loop.speed()
    metrics["calibrate.kernel_ms"] = 1e3 * statistics.median(loop.calibrations)
    metrics["cli.bytes_out"] = loop.bytes_out / n
    metrics["trace.spans_per_request"] = len(arrays["name"]) / n
    traced_p50 = latency_metrics(loop.latency_ms, loop.elapsed)["request_p50_ms"]
    metrics["trace.overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0)
    tracer.save(OUT / f"trace-{workload}.npz")

    attempted, failed, wrong, classes = check_outputs(spool_path)
    _report_checks(wrong, classes)
    missing = [s for s in EXPECTED_SPANS[workload] if not entries.get(s)]
    if missing:
        _log(f"{workload}: layer spans never entered: {', '.join(missing)}")
        sys.exit(1)
    _log(f"{workload}: traced {n} requests ({rounds} rounds), p50 {traced_p50:.4g} ms "
         f"against {untraced_p50:.4g} ms untraced")
    return _result(not wrong, attempted, failed, metrics)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import workloads

    try:
        gen = workloads.make(args.workload, args.seed)
    except ValueError as exc:
        _log(str(exc))
        return 2
    cli = locate_program()
    OUT.mkdir(exist_ok=True)
    spool_path = OUT / f"spool-{os.getpid()}.jsonl"
    try:
        if args.trace:
            line = run_traced(cli, gen, args.workload, args.seed, args.seconds, spool_path)
        else:
            rounds = args.rounds
            if rounds is None and args.workload in FIXED_ROUNDS:
                rounds = fixed_rounds(args.workload, args.seconds)
            # --rounds is the traced run's untraced pass, which needs no set-up time
            line = run_untraced(cli, gen, args.workload, args.seconds, rounds, spool_path,
                                with_setup=args.rounds is None)
    finally:
        spool_path.unlink(missing_ok=True)
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
