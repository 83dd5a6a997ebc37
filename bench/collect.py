"""Run the benchmark over several seeds and summarise each metric.

Usage (from the root of a checkout):

    python3 bench/collect.py --seeds 1-10 [--workloads lib-real,cli] \
        [--seconds 20] [--trace 0] [--out bench/baseline.json]

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  Runs go one at a time.  With --out
the summary, the pass digests and the environment stamp are written as
JSON; bench/baseline.json was made this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None, "n": len(values)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {}
    for wl in args.workloads.split(","):
        values, runs = {}, []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            digest = next((ln.split()[-1] for ln in lines
                           if ln.startswith("value digest")), None)
            env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
            runs.append({"seed": seed, "rc": proc.returncode, "digest": digest,
                         "correct": result.get("correct"),
                         "attempted": result.get("attempted"),
                         "failed": result.get("failed")})
            print("%s seed %d rc %d correct %s attempted %s failed %s digest %s"
                  % (wl, seed, proc.returncode, result.get("correct"),
                     result.get("attempted"), result.get("failed"), digest), flush=True)
            for name, m in result.get("metrics", {}).items():
                values.setdefault(name, []).append(m["value"])
        stats = {name: summarise(v) for name, v in values.items() if len(v) >= 2}
        for name, st in stats.items():
            print("  %-32s median %14.6g  q1 %14.6g  q3 %14.6g  spread %s  bound %s"
                  % (name, st["median"], st["q1"], st["q3"],
                     "%.4f" % st["spread"] if st["spread"] is not None else "n/a",
                     bounds.get(name)), flush=True)
        summary[wl] = {"env": env, "runs": runs, "metrics": stats}
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seconds": args.seconds, "trace": args.trace, "workloads": summary},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
