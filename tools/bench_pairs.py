"""Alternating parent/change pairs of one benchmark workload, summarized as JSON.

    python3 tools/bench_pairs.py PARENT_REV --workload W --pairs N --seed S --out BENCH_<n>.json

The parent side is PARENT_REV, extracted with ``git archive`` into a
temporary directory; the change side is this checkout's working tree,
recorded as its HEAD commit plus the sha256 of ``git diff HEAD --binary``
(None for a tree that matches HEAD; files git does not track are not in
that diff).  Both
trees are byte-compiled first, so that neither run pays for compiling (or
for a stale ``__pycache__``) at import.  Pair i runs the parent first when i
is even and the change first when it is odd.  Each side runs
``bench/run.py --workload W --seed S --seconds <run_seconds of
BENCHMARK.json> --trace T`` from its own tree; the last stdout line gives
the metrics and the ``== ... machine:`` line the machine.

The summary of every metric holds each side's values, median and quartiles,
the wins of each side (ties count for neither) and ``gain``: the change wins
at least nine tenths of the pairs and its median is better than the
parent's by more than the parent's quartile distance.  An end-to-end
metric also gets ``worse_than_bound``: its change median is worse than the
parent's by more than the metric's ``bound`` in BENCHMARK.json (a fraction
of the parent's median); a per-layer metric, which has no bound, gets null.
Each entry also holds its ``change`` label, ``failed_share``, per side the
failed points over the attempted ones summed over its runs, and
``more_failures``: the change's share is the larger.  The results land in ``--out`` under
``workloads[W]["seed=S"]`` (with `` trace=1`` appended for a traced run);
other entries already in that file are kept, so several workloads and
seeds can share one file.  A run whose key the file already holds exits 2
before its first pair.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep_hot", "sweep_cold", "cli_point", "oracle_suite")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolating linearly
    between order statistics (numpy's default percentile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[float], change: list[float], better: str,
              bound: float | None = None) -> dict:
    """Compare the paired values of one metric; ``better`` is 'higher' or 'lower'.

    Pair i is (parent[i], change[i]).  ``gain`` is the claim rule: the change
    wins >= 9/10 of all pairs (ties count for neither side) and its median
    beats the parent's by more than the parent's quartile distance.
    ``worse_than_bound`` is None without a ``bound``, else whether the change
    median is worse than the parent's by more than bound * |parent median|.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number (>= 1) of parent and change values")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    margins = [sign * (c - p) for p, c in zip(parent, change)]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    change_wins = sum(m > 0 for m in margins)
    gap = sign * (c_med - p_med)
    return {
        "parent": {"values": parent, "median": p_med, "q1": p_q1, "q3": p_q3},
        "change": {"values": change, "median": c_med, "q1": c_q1, "q3": c_q3},
        "wins": {"change": change_wins, "parent": sum(m < 0 for m in margins),
                 "ties": sum(m == 0 for m in margins)},
        "median_ratio": c_med / p_med if p_med else None,
        "gain": 10 * change_wins >= 9 * len(margins) and gap > p_q3 - p_q1,
        "worse_than_bound": None if bound is None else -gap > bound * abs(p_med),
    }


def failures(attempted: dict, failed: dict) -> dict:
    """``failed_share`` of each side (its failed points over its attempted
    ones, summed over its runs; None if it attempted none) and
    ``more_failures``: the change's share is larger than the parent's."""
    share = {side: sum(failed[side]) / sum(attempted[side]) if sum(attempted[side]) else None
             for side in ("parent", "change")}
    more = None if None in share.values() else share["change"] > share["parent"]
    return {"failed_share": share, "more_failures": more}


def run_key(seed: int, trace: int) -> str:
    """The key of a run's entry under its workload in the --out file."""
    return f"seed={seed}" + (" trace=1" if trace else "")


def taken(doc: dict, workload: str, key: str) -> bool:
    """Whether the --out document already holds an entry for this run."""
    return key in doc.get("workloads", {}).get(workload, {})


def change_label(head_sha: str, diff: bytes) -> dict:
    """How the change side is recorded: the HEAD commit and the sha256 of
    ``git diff HEAD --binary`` (``diff``), None when the tree matches HEAD."""
    return {"head": head_sha, "diff_sha256": hashlib.sha256(diff).hexdigest() if diff else None}


def run_side(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench/run.py run in ``tree``: its result line plus the machine line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    result = json.loads(lines[-1])
    result["machine"] = next((line for line in lines if line.startswith("== ")), "")
    return result


def compile_tree(tree: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"],
                   cwd=tree, check=True, capture_output=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    key = run_key(args.seed, args.trace)
    if args.out.exists() and taken(json.loads(args.out.read_text()), args.workload, key):
        parser.error(f"{args.out} already holds workloads[{args.workload!r}][{key!r}]")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    def git(*cmd: str) -> bytes:
        return subprocess.run(["git", *cmd], cwd=ROOT, check=True, capture_output=True).stdout

    parent_sha = git("rev-parse", args.parent_rev).decode().strip()
    change = change_label(git("rev-parse", "HEAD").decode().strip(),
                          git("diff", "HEAD", "--binary"))
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_parent_") as tmp:
        parent_tree = Path(tmp)
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=git("archive", parent_sha),
                       check=True)
        trees = {"parent": parent_tree, "change": ROOT}
        for tree in trees.values():
            compile_tree(tree)
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_side(trees[side], args.workload, args.seed,
                                  spec["run_seconds"], args.trace)
                runs[side].append(result)
                value = result["metrics"].get("points_per_s", {}).get("value")
                print(f"pair {i + 1}/{args.pairs} {side}: points_per_s={value}", flush=True)

    metrics = {}
    for name in runs["parent"][0]["metrics"]:
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        metrics[name] = {"unit": runs["parent"][0]["metrics"][name]["unit"],
                         "better": better[name],
                         **summarize(values["parent"], values["change"], better[name],
                                     bounds.get(name))}
    per_run = {name: {side: [r[name] for r in runs[side]] for side in runs}
               for name in ("attempted", "failed", "correct", "machine")}
    entry = {
        "change": change,
        "pairs": args.pairs,
        "trace": args.trace,
        "seconds": spec["run_seconds"],
        "first": ["parent" if i % 2 == 0 else "change" for i in range(args.pairs)],
        **per_run,
        **failures(per_run["attempted"], per_run["failed"]),
        "metrics": metrics,
    }
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["parent"] = parent_sha
    doc["change"] = change
    doc.setdefault("workloads", {}).setdefault(args.workload, {})[key] = entry
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{name:<16} parent {m['parent']['median']:.6g} change {m['change']['median']:.6g} "
              f"wins {m['wins']} gain={m['gain']} worse_than_bound={m['worse_than_bound']}")
    print(f"failed_share {entry['failed_share']} more_failures={entry['more_failures']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
