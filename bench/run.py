"""Run one kerrcasimir benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S --trace 0|1

NAME is sweep_hot, sweep_cold, cli_point or oracle_suite; ``all`` runs the
four one after another.  Each workload runs in a fresh process
(bench/workloads.py).  With ``--trace 0`` its set-up is repeated in further
processes that stop before the first op, and setup_s is the median over
all of them.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give the
machine, the failure breakdown and the tail latency.  Results and spans are
also written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("sweep_hot", "sweep_cold", "cli_point", "oracle_suite")
DEFAULT_SEED = 1
SETUP_RUNS = 3           # set-up samples per untraced run, the measured process included
BUDGET_S = 170.0         # a run must end within 180 s


def declared_units() -> dict[str, str]:
    """Unit of every metric declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


class BenchError(RuntimeError):
    pass


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
    }


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one workload process; return (monotonic start, its JSON line)."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "workloads.py"), *args],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process {args} exceeded the time budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process {args} failed with exit code "
                         f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    return start, json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace)]
    setups = []

    def setup_only(count: int) -> None:
        for _ in range(count):
            start, ready = spawn([*common, "--setup-only"], deadline)
            setups.append(ready["t_ready"] - start)

    # Half the set-up samples before the measured process and half after,
    # so that they do not all fall into one slow or fast spell of the host.
    extra = 0 if trace else SETUP_RUNS - 1
    setup_only(extra // 2)
    start, result = spawn(common, deadline)
    setup_only(extra - extra // 2)
    metrics = result["metrics"]
    if not trace:
        setups.append(result["t_ready"] - start)
        metrics["setup_s"] = statistics.median(setups)
    units = declared_units()
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    result["correct"] = not result["unexpected"]
    result["summary"]["setup_samples_s"] = setups
    return result


def report(name: str, seed: int, trace: int, result: dict, info: dict) -> None:
    summary = result["summary"]
    print(f"== {name} seed={seed} trace={trace}  machine: {json.dumps(info)}")
    print(f"   attempted={result['attempted']} failed={result['failed']} "
          f"failed_ratio={summary['failed_ratio']:.6g} ops={summary['ops']} "
          f"correct={result['correct']}")
    print(f"   op_p50_s: {summary['op_p50_s']:.6g} s (completed ops of the untraced part)")
    tail = summary["op_tail"]
    if tail:
        print(f"   op_tail_s: p{tail['percentile']:.1f} of n={tail['n']} = {tail['value_s']:.6g} s")
    else:
        print(f"   op_tail_s: omitted, {summary['ops']} ops < 11")
    if summary["failures_by_reason"]:
        print(f"   failures by reason: {json.dumps(summary['failures_by_reason'])}")
    for item in result["unexpected"][:10]:
        print(f"   UNEXPECTED: {item}")
    for key, m in result["metrics"].items():
        print(f"   {key:<40} {m['value']:<24.9g} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result_{name}_trace{trace}.json"
    path.write_text(json.dumps({"workload": name, "seed": seed, "trace": trace,
                                "machine": info, **result}, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kerrcasimir" / "__init__.py").is_file():
        print(f"bench: no kerrcasimir sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + BUDGET_S * len(names)
    info = machine()
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            report(name, args.seed, args.trace, results[name], info)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    keys = ("correct", "attempted", "failed", "metrics")
    if args.workload == "all":
        print(json.dumps({name: {k: r[k] for k in keys} for name, r in results.items()}))
    else:
        print(json.dumps({k: results[args.workload][k] for k in keys}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
