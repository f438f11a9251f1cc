"""Run one workload on several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload kernel-tall --seeds 1-10
    python3 perfbench/spread.py --workload kernel-tall --seeds 11-20 --against .perfbench/spread-kernel-tall.json

Each run measures for run_seconds of BENCHMARK.json.  Spread is the distance
between the first and third quartile of the per-run values
(statistics.quantiles(values, n=4)) as a share of their median.  A set passes
when every run is correct and every metric's spread is within its bound; a
spread below a third of the bound, the margin aimed for, reads "steady".
With --against, each median is also compared with the medians of an earlier
set, which must not be worse by more than the bound.  Exit code 0 means the
set passed.  The per-run values go to .perfbench/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else float("inf")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="range a-b or list a,b,c")
    ap.add_argument("--against", default=None, help="spread file of an earlier set")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        sys.stderr.write(f"seed {seed}: correct={result['correct']}\n")

    earlier = json.loads(Path(args.against).read_text())["medians"] if args.against else {}
    medians = {}
    ok = all(r["correct"] for r in runs)
    print(f"{'metric':22s} {'median':>12s} {'spread':>8s} {'bound':>6s}  verdict")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(values)
        medians[m["name"]] = med
        s = spread(values)
        ok = ok and s <= m["bound"]
        if s < m["bound"] / 3:
            verdict = "steady"
        else:
            verdict = "within bound" if s <= m["bound"] else "OUTSIDE BOUND"
        if m["name"] in earlier and earlier[m["name"]]:
            change = med / earlier[m["name"]] - 1.0
            worse = change if m["better"] == "lower" else -change
            verdict += f", {change:+.1%} vs earlier" + (" WORSE" if worse > m["bound"] else "")
            ok = ok and worse <= m["bound"]
        print(f"{m['name']:22s} {med:12.6g} {s:8.2%} {m['bound']:6.2f}  {verdict}")
    out = ROOT / ".perfbench" / f"spread-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seconds": seconds, "medians": medians, "runs": runs}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
