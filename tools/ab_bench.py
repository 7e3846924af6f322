"""Alternating A/B runs of the benchmark against another revision.

Usage: python3 tools/ab_bench.py REV [--workload W] [--pairs K] [--aa]     (K even)

Checks out REV into a temporary directory (tools/revtree.py), and a snapshot
of this working tree into another (`git stash create`, so tracked files with
their uncommitted changes; untracked files are left out), then runs
`bench/run.py --workload W --trace 0` K times (default 10) in each,
alternating which side runs first.  K must be even, so each side runs first
in exactly half of the pairs.  Both sides run from a fresh extract, so
where a tree lives on disk does not enter the comparison.  Every workload in
BENCHMARK.json runs unless --workload names one.  Each run lasts as long as
the benchmark sets, the same on both sides, and runs are sequential, so the
two sides never contend.

For each end-to-end metric of BENCHMARK.json it prints and records each
side's median and quartiles, the change's median relative to REV's, and the
pairs the working tree won (ties count for neither).  `gain` is true when
the change won at least nine tenths of the pairs and the medians differ by
more than the distance between REV's quartiles.  Every run's metrics are
recorded too, with its `host_slice_ms`, the benchmark's host-speed
calibration.

--aa is the harness's own control: the working tree's side is a second
extract of REV, run on the same schedule, so every difference is the
harness's.  Its figures go under the workload's `aa` key, with
`iqr_overlap` per metric: the share of the union of the two sides'
quartile ranges that both cover (1 for equal ranges, 0 for disjoint ones).
Read an A/B `wins` against the A/A `wins` of the same workload: an A/A far
from K/2 is a bias of the schedule or of the host, not of the code.

The results go to BENCH_<short REV>.json at the repo root, with the host
information from bench/run.py's record.  A workload's A/B figures already
in that file are replaced, and so are its A/A figures under --aa; the rest
is kept, so workloads can be measured with different pair counts or at
different times.  Exits 1 if any run fails or is not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from revtree import repo_root, rev_tree, short_rev


def _bench_once(tree: Path, workload: str) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py in {tree} exited {proc.returncode}:\n{proc.stderr}")
    summary = json.loads(lines[-1])
    record = json.loads((tree / "bench" / "out" / f"{workload}-seedNone-trace0.json").read_text())
    return {
        "correct": summary["correct"],
        "failed": summary["failed"],
        "metrics": {name: m["value"] for name, m in summary["metrics"].items()},
        "host_slice_ms": record["metrics"]["host_slice_ms"],
        "machine": record["machine"],
    }


def _spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _compare(metric: dict, base: list, change: list) -> dict:
    lower = metric["better"] == "lower"
    wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
    a, b = _spread(base), _spread(change)
    gap = a["median"] - b["median"] if lower else b["median"] - a["median"]
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "base": a,
        "change": b,
        "change_vs_base": b["median"] / a["median"] - 1.0,
        "wins": f"{wins}/{len(base)}",
        "gain": wins >= 0.9 * len(base) and gap > a["q3"] - a["q1"],
    }


def _iqr_overlap(a: dict, b: dict) -> float:
    inter = min(a["q3"], b["q3"]) - max(a["q1"], b["q1"])
    union = max(a["q3"], b["q3"]) - min(a["q1"], b["q1"])
    return max(inter, 0.0) / union if union > 0 else 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--aa", action="store_true",
                        help="run REV against a second extract of REV")
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.pairs % 2:
        parser.error("--pairs must be even and at least 2")

    here = repo_root()
    definition = json.loads((here / "BENCHMARK.json").read_text())
    names = [w["name"] for w in definition["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    workloads = [args.workload] if args.workload else names
    short = short_rev(here, args.rev)
    # A commit object of the working tree that touches no ref; empty when clean.
    snapshot = subprocess.run(["git", "stash", "create"], cwd=here, check=True,
                              capture_output=True, text=True).stdout.strip()
    change = short_rev(here, "HEAD") + (" with uncommitted changes" if snapshot else "")
    second = args.rev if args.aa else snapshot or "HEAD"
    path = here / f"BENCH_{short}.json"
    report = json.loads(path.read_text()) if path.exists() else {"workloads": {}}

    ok = True
    with (rev_tree(here, args.rev, "ab_bench_") as there,
          rev_tree(here, second, "ab_bench_") as changed):
        for workload in workloads:
            runs = {"base": [], "change": []}
            for k in range(args.pairs):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                for side in order:
                    tree = there if side == "base" else changed
                    runs[side].append(_bench_once(tree, workload))
                print(f"{workload} pair {k + 1}/{args.pairs}: " + ", ".join(
                    f"{side} run_s {runs[side][-1]['metrics']['run_s']:.4g}"
                    for side in ("base", "change")), flush=True)
            failed = sum(r["failed"] for side in runs.values() for r in side)
            ok = ok and failed == 0 and all(r["correct"] for side in runs.values() for r in side)
            metrics = {
                m["name"]: _compare(m, *([r["metrics"][m["name"]] for r in runs[side]]
                                         for side in ("base", "change")))
                for m in definition["end_to_end"]
            }
            if args.aa:
                for c in metrics.values():
                    c["iqr_overlap"] = _iqr_overlap(c["base"], c["change"])
            for name, c in metrics.items():
                overlap = f", IQR overlap {c['iqr_overlap']:.2f}" if args.aa else ""
                print(f"  {name:<12} {c['base']['median']:.4g} [{c['base']['q1']:.4g}, "
                      f"{c['base']['q3']:.4g}] -> {c['change']['median']:.4g} "
                      f"[{c['change']['q1']:.4g}, {c['change']['q3']:.4g}] {c['unit']} "
                      f"({c['change_vs_base']:+.1%}, wins {c['wins']}"
                      f"{', gain' if c['gain'] else ''}{overlap})")
            entry = {
                "pairs": args.pairs,
                "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "failed": failed,
                "metrics": metrics,
                "runs": {side: [dict(r["metrics"], host_slice_ms=r["host_slice_ms"])
                                for r in runs[side]] for side in ("base", "change")},
            }
            figures = report["workloads"].setdefault(workload, {})
            if args.aa:
                figures["aa"] = entry
            else:
                figures.update(entry)
                report["change"] = change
            machine = dict(runs["change"][-1]["machine"])
            machine.pop("git_commit", None)
            report.update(base=short, host=machine)

    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(here)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
