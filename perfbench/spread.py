"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload NAME [--seeds 1 2 ...] [--seconds S]

Runs ``run.py`` once per seed, one process at a time, and prints for each
metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread, which is the distance between the quartiles as a share of the
median.  The summary is also written to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args(argv)

    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        tails = [line for line in proc.stdout.splitlines() if line.startswith("op_s.tail")]
        results.append(result)
        values = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values} {' '.join(tails)}", flush=True)

    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / statistics.median(values)
                         if statistics.median(values) else None}
        print(f"{name:45s} median {summary[name]['median']:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {summary[name]['spread']}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"all correct: {all(r['correct'] for r in results)}; failed shares: {sorted(shares)}")
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    stem = f"spread-{args.workload}-seeds{args.seeds[0]}-{args.seeds[-1]}"
    (out / f"{stem}.json").write_text(json.dumps({"results": results, "summary": summary}))


if __name__ == "__main__":
    main()
