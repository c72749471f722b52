"""Closed-loop benchmark of the orthoball CLI.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload, table per workload

One generator process runs one op at a time: each op is a fresh
``orthoball`` CLI process with generated argv, timed from spawn to exit, and
its output is checked for exactness against ``bench/reference.json``.  With
``--trace 0`` the run reports the end-to-end metrics, op time relative to a
fixed calibration loop timed around every op; with ``--trace 1`` it
alternates plain ops with ops run under ``bench/tracer.py`` and reports the
per-layer metrics of the traced ones.  The last line of standard output is a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the environment record.  See
``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

import tracer  # a sibling file: bench/ is on sys.path when this runs as a script

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE_PATH = BENCH_DIR / "reference.json"
SPEC_PATH = ROOT / "BENCHMARK.json"  # metric names and units
# Printed and saved but not gated: raw wall time follows the host's load.
EXTRA_UNITS = {"op_p50_s": "s"}

# Small-height sphere couplings; each op draws one.  The program sees only argv.
LAMBDAS = ("1/4", "1/3", "2/5", "3/7", "5/11", "7/12")
VERIFIER_SEEDS = (0, 1, 2, 3)
MIN_SETUP_SAMPLES = 9
CALIBRATION_STEPS = 40_000
EXPORT_DEGREE, EXPORT_DIM = 7, 4

# Run the CLI exactly as its installed console script does.
CLI = [sys.executable, "-c", "import sys; from orthoball.cli import main; sys.exit(main())"]
IMPORT_ONLY = [sys.executable, "-c", "import orthoball.cli"]
TRACED = [sys.executable, str(BENCH_DIR / "tracer.py")]


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    verifier: bool  # a verification run (JSONL report) rather than a basis export


WORKLOADS = {
    "verify-d3": Workload(("--dim", "3", "--mu", "1/2", "--max-degree", "6", "--suites", "all"), True),
    "radial-d2": Workload(("--dim", "2", "--mu", "1/2", "--max-degree", "12",
                           "--suites", "jacobi,krall1d"), True),
    "harmonics-d5": Workload(("--dim", "5", "--max-degree", "6", "--suites", "harmonics"), True),
    "export-d4": Workload(("--dim", str(EXPORT_DIM), "--mu", "1/2",
                           "--export-basis", f"{EXPORT_DEGREE},lambda"), False),
}


@dataclass
class OpResult:
    key: str
    wall_s: float
    peak_rss_mb: float
    failure: str | None  # None when the op passed every exactness check
    layers: dict | None = None  # per-layer metrics, traced ops only


def op_stream(workload: str, seed: int):
    """Endless (key, cli_args) sequence for a workload; the same seed gives the same sequence.

    Each round visits every lambda once in a seeded order, so a run's mix of
    coefficient heights does not depend on how many ops fit in it.
    """
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        for lam in rng.sample(LAMBDAS, len(LAMBDAS)):
            if spec.verifier:
                vseed = rng.choice(VERIFIER_SEEDS)
                yield f"{lam}:{vseed}", [*spec.args, "--lambda", lam, "--seed", str(vseed)]
            else:
                yield lam, [*spec.args, "--lambda", lam]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd: list[str], env: dict) -> tuple[float, float, int, bytes]:
    """Run one process to exit: wall seconds, its own peak RSS in MB, exit code, stdout."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode, out


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def report_digest(checks: list[dict]) -> str:
    """Digest of each check's stable fields; timing fields are left out."""
    stable = [[c["suite"], c["identity"], c["params"], c["status"], c["witness"]] for c in checks]
    return hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()


def output_facts(workload: str, out: bytes) -> tuple[int, str]:
    """(check or element count, digest) of one op's output; raises ValueError if malformed."""
    if not WORKLOADS[workload].verifier:
        return json.loads(out)["count"], hashlib.sha256(out).hexdigest()
    lines = [json.loads(line) for line in out.decode().splitlines()]
    if not lines or lines[-1].get("type") != "summary":
        raise ValueError("report has no summary line")
    summary, checks = lines[-1], lines[:-1]
    if summary.get("status") != "pass" or summary["counts"]["failed"] != 0:
        raise ValueError(f"summary reports failure: {summary.get('counts')}")
    return summary["counts"]["total"], report_digest(checks)


def check_op(workload: str, key: str, code: int, out: bytes, reference: dict) -> str | None:
    """Why an op's output is not exactly right, or None if it is."""
    if code != 0:
        return f"exit code {code}"
    try:
        count, digest = output_facts(workload, out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
    ref = reference[workload]
    if WORKLOADS[workload].verifier:
        if count != ref["total"]:
            return f"{count} checks, expected {ref['total']}"
    elif count != comb(EXPORT_DEGREE + EXPORT_DIM - 1, EXPORT_DIM - 1):
        return f"{count} elements, expected C(n+d-1, d-1)"
    if digest != ref["digests"].get(key):
        return "output digest differs from the reference"
    return None


def run_op(workload: str, key: str, args: list[str], env: dict, reference: dict,
           spans_path: Path | None = None) -> OpResult:
    """Run one op, untraced or (with ``spans_path``) under the tracer, and check its output."""
    if spans_path is None:
        cmd = [*CLI, *args]
    else:
        cmd = [*TRACED, str(spans_path), key, *args]
    wall, rss, code, out = spawn(cmd, env)
    result = OpResult(key, wall, rss, check_op(workload, key, code, out, reference))
    if spans_path is not None:
        result.layers = tracer.layer_metrics(str(spans_path))
        spans_path.unlink()
        # A report is one line per check plus the summary line.
        checks = max(len(out.splitlines()) - 1, 0) if WORKLOADS[workload].verifier else 0
        result.layers["verify.checks"] = checks
        result.layers["cli.output_bytes"] = len(out)
    return result


def calibrate() -> float:
    """Wall seconds of a fixed exact-arithmetic loop that never touches orthoball.

    Fraction products summed into a dict keyed by exponent-like tuples: the
    kind of work orthoball does, so a busy host slows it about as much as an op.
    """
    t0 = time.perf_counter()
    acc: dict[tuple[int, int, int], Fraction] = {}
    for i in range(CALIBRATION_STEPS):
        key = (i % 7, i % 11, i % 5)
        acc[key] = acc.get(key, 0) + Fraction(i % 17 + 1, i % 19 + 2) * Fraction(3, i % 23 + 1)
    return time.perf_counter() - t0


def setup_time(env: dict) -> float:
    """Wall time of one process that only imports orthoball.cli."""
    wall, _, code, _ = spawn(IMPORT_ONLY, env)
    if code != 0:
        raise RuntimeError("importing orthoball.cli failed")
    return wall


def environment(workload: str, seed: int, trace: int, ops: int, nproc: int) -> dict:
    commit = "unknown"  # the benchmark may run from a plain export of the tree
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "orthoball").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu": cpu,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "ops": ops,
    }


def median_of(results: list[OpResult], field: str) -> float:
    return statistics.median(getattr(r, field) for r in results)


def run_workload(workload: str, seed: int, seconds: float, trace: int, env: dict,
                 reference: dict) -> tuple[list[OpResult], dict[str, float]]:
    """Run one workload for ``seconds``; returns every op and the metrics by name."""
    ops = op_stream(workload, seed)
    results: list[OpResult] = []
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{os.getpid()}.bin"
        t0 = time.perf_counter()
        # Each generated op runs plain, then traced, so both sides see the same inputs.
        while time.perf_counter() - t0 < seconds or not results:
            key, args = next(ops)
            results.append(run_op(workload, key, args, env, reference))
            results.append(run_op(workload, key, args, env, reference, spans_path))
        return results, layer_report(results)
    # Set-up samples are spread over the run, one before each op, so they see
    # the same machine conditions as the ops.
    setup: list[float] = []
    calibration = [calibrate()]
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or len(setup) < MIN_SETUP_SAMPLES:
        setup.append(setup_time(env))
        if time.perf_counter() - t0 < seconds or not results:
            key, args = next(ops)
            results.append(run_op(workload, key, args, env, reference))
            calibration.append(calibrate())
    # Each op's wall time over the mean of the calibrations just before and after it.
    relative = [2 * r.wall_s / (before + after)
                for r, before, after in zip(results, calibration, calibration[1:])]
    return results, {
        "op_p50_rel": statistics.median(relative),
        "op_p50_s": median_of(results, "wall_s"),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": median_of(results, "peak_rss_mb"),
    }


def layer_report(results: list[OpResult]) -> dict[str, float]:
    """Median of each per-layer metric over the traced ops, and the tracing overhead."""
    traced = [r for r in results if r.layers is not None]
    plain = [r for r in results if r.layers is None]
    metrics = {name: statistics.median(r.layers[name] for r in traced)
               for name in traced[0].layers if name not in ("total_self_s", "spans")}
    metrics["trace.overhead_ratio"] = median_of(traced, "wall_s") / median_of(plain, "wall_s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=28, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced ops instead of end-to-end metrics")
    args = parser.parse_args(argv)
    if not (SRC / "orthoball" / "cli.py").is_file():
        print(f"no orthoball sources under {SRC}", file=sys.stderr)
        return 2
    reference = load_reference()
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    env = child_env()
    # Calibration and ops share one CPU, so both see the same host contention.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    # Warm-up: the first import compiles bytecode, which users pay only once.
    if spawn(IMPORT_ONLY, env)[2] != 0:
        print("importing orthoball.cli failed", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = {}
    for name in names:
        results, metrics = run_workload(name, args.seed, args.seconds, args.trace, env, reference)
        failed = [r for r in results if r.failure is not None]
        for r in failed:
            print(f"{name}: op {r.key} failed: {r.failure}", file=sys.stderr)
        for metric, value in metrics.items():
            unit = units.get(metric) or EXTRA_UNITS[metric]
            print(f"{name:<13} {metric:<23} {value:>14.6g} {unit}")
        print(f"{name:<13} {'fail_ratio':<23} {len(failed) / len(results):>14.6g} "
              f"({len(failed)} of {len(results)} ops)")
        record = {
            "correct": not failed,
            "attempted": len(results),
            "failed": len(failed),
            "metrics": {m: {"value": metrics[m], "unit": unit} for m, unit in units.items()},
        }
        env_record = environment(name, args.seed, args.trace, len(results), len(cpus))
        OUT_DIR.mkdir(exist_ok=True)
        out_path = OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"env": env_record, "result": record, "all_metrics": metrics,
                       "ops": [vars(r) for r in results]}, fh, indent=1)
        print(json.dumps({"env": env_record}))
        records[name] = record
    if len(names) == 1:
        print(json.dumps(records[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": {f"{name}:{m}": v for name, r in records.items()
                        for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
