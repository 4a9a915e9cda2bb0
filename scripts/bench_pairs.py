#!/usr/bin/env python3
"""Run perfbench on a parent and a change checkout in pairs; write a BENCH file.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workloads flood relay corpus --seeds 1001-1010 \\
        --claim flood:sim_s --trace-seed 1011 \\
        --note "what the change does" --out BENCH_<n>.json

Each DIR is a source checkout. In it the script runs
``python3 perfbench/run.py --workload W --seed S --seconds 6 --trace 0``, one
run at a time. For each seed, and each workload within it, both sides run:
the parent first on odd seeds, the change first on even ones. The output
holds, per workload and end-to-end metric of ``BENCHMARK.json``, each side's
median and quartiles (inclusive method), the pairs the change won (ties win
for neither side), the ratio of the medians and the parent's interquartile
range over its median; beside them the seeds, the commits and ``src/tmkit``
digests the runs reported, and the failed and attempted operations.

``--claim W:METRIC`` names the claimed gain. It is met when the change wins
at least nine tenths of the pairs and the medians differ, in the metric's
better direction, by more than the parent's interquartile range
(perfbench/README.md, "Reading a claim"). ``--trace-seed`` adds one
``--trace 1`` run per side of the claimed workload and records its
per-layer metrics. Standard library only; the checkouts are not modified
beyond the ``.perfbench-out`` directory that perfbench writes.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 6
RULE = (
    "perfbench/README.md 'Reading a claim': change wins >= 9 of 10 alternating pairs "
    "and the medians differ by more than the parent's interquartile range"
)


def seed_list(text: str) -> list[int]:
    """``1001-1010`` or ``1001,1003,1005``."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-", 1))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def command(workload: str, seed: int | str, trace: int) -> list[str]:
    return ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{SECONDS:g}", "--trace", str(trace)]


def run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run: its result line plus the environment it recorded."""
    done = subprocess.run(command(workload, seed, trace), cwd=checkout,
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{checkout}: {' '.join(command(workload, seed, trace))} exited "
                 f"{done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    saved = checkout / ".perfbench-out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    result["environment"] = json.loads(saved.read_text(encoding="utf-8"))["environment"]
    return result


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, quartiles and paired wins of one metric."""
    pq = statistics.quantiles(parent, n=4, method="inclusive")
    cq = statistics.quantiles(change, n=4, method="inclusive")
    won = (lambda p, c: c < p) if better == "lower" else (lambda p, c: c > p)
    return {
        "parent_median": round(pq[1], 6),
        "parent_quartiles": [round(pq[0], 6), round(pq[2], 6)],
        "change_median": round(cq[1], 6),
        "change_quartiles": [round(cq[0], 6), round(cq[2], 6)],
        "change_wins": sum(won(p, c) for p, c in zip(parent, change)),
        "pairs": len(parent),
        "change_over_parent": round(cq[1] / pq[1], 4),
        "parent_iqr_over_median": round((pq[2] - pq[0]) / pq[1], 4),
    }


def claim_met(m: dict, better: str) -> bool:
    gain = m["parent_median"] - m["change_median"]
    if better != "lower":
        gain = -gain
    iqr = m["parent_quartiles"][1] - m["parent_quartiles"][0]
    return m["change_wins"] >= math.ceil(0.9 * m["pairs"]) and gain > iqr


def side(results: list[dict], label: str) -> dict:
    """The commit and source digest every run of one side reported."""
    seen = {(r["environment"]["commit"], r["environment"]["src_sha256"]) for r in results}
    if len(seen) != 1:
        sys.exit(f"the {label} runs report different sources: {sorted(seen)}")
    commit, digest = seen.pop()
    return {"commit": commit, "src_sha256": digest}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--claim", help="WORKLOAD:METRIC of the claimed gain")
    parser.add_argument("--trace-seed", type=int, help="seed of one traced run per side")
    parser.add_argument("--note", default="", help="what the change does")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}

    runs: dict[str, dict[str, list[dict]]] = {w: {"parent": [], "change": []}
                                              for w in args.workloads}
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for workload in args.workloads:
            for label in order:
                print(f"seed {seed} {workload} {label}", file=sys.stderr, flush=True)
                runs[workload][label].append(run(checkouts[label], workload, seed, 0))

    every = {label: [r for w in runs.values() for r in w[label]] for label in checkouts}
    env = every["change"][0]["environment"]
    report: dict = {
        "claim": None,
        "change": args.note,
        "command": " ".join(command("W", "S", 0)),
        "seeds": args.seeds,
        "order": "pairs alternate: parent first on odd seeds, change first on even seeds",
        "parent": side(every["parent"], "parent"),
        "change_side": side(every["change"], "change"),
        "host": {"python": env["python"], "nproc": env["nproc"]},
        "workloads": {},
    }
    for workload, sides in runs.items():
        report["workloads"][workload] = {
            "correct": {label: all(r["correct"] for r in rs) for label, rs in sides.items()},
            "failed_of_attempted": {
                label: [sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)]
                for label, rs in sides.items()
            },
            "metrics": {
                name: compare(*([r["metrics"][name]["value"] for r in sides[label]]
                                for label in ("parent", "change")), better[name])
                for name in better
            },
        }
    if args.claim:
        workload, metric = args.claim.split(":", 1)
        m = report["workloads"][workload]["metrics"][metric]
        report["claim"] = {"workload": workload, "metric": metric,
                           "met": claim_met(m, better[metric]), "rule": RULE}
        if args.trace_seed is not None:
            traced = {label: run(checkouts[label], workload, args.trace_seed, 1)
                      for label in checkouts}
            report["per_layer"] = {
                "command": " ".join(command(workload, args.trace_seed, 1)),
                "note": "one traced run per side",
                **{label: {name: v["value"] for name, v in r["metrics"].items()}
                   for label, r in traced.items()},
            }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
