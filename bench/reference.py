"""Run the benchmark on several seeds and summarize each end-to-end metric.

    python3 bench/reference.py --label A --seeds 1 2 3 4 5 6 7 8 9 10

Runs ``bench/run.py`` once per workload and seed, one run at a time, and
writes every run's result plus, per workload and metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
the distance between the quartiles as a share of the median.  The summary
goes to ``bench/out/reference-<label>.json`` and, as a Markdown table, to
standard output.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def _run(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def summarize(results):
    """Median, quartiles and spread of every metric over a list of results."""
    table = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        table[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                       "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}
    return table


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int,
                   default=json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--workloads", nargs="+", default=("converge", "freqest", "solve"))
    args = p.parse_args(argv)

    doc = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        results = [_run(workload, seed, args.seconds) for seed in args.seeds]
        doc["workloads"][workload] = {
            "runs": results,
            "all_correct": all(r["correct"] for r in results),
            "failed_share": [r["failed"] / r["attempted"] for r in results],
            "metrics": summarize(results),
        }
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / f"reference-{args.label}.json").write_text(json.dumps(doc, indent=1))

    print(f"| workload | metric | unit | median | Q1 | Q3 | spread |")
    print("|---|---|---|---|---|---|---|")
    for workload, w in doc["workloads"].items():
        for name, m in w["metrics"].items():
            print(f"| {workload} | {name} | {m['unit']} | {m['median']:.5g} | {m['q1']:.5g} "
                  f"| {m['q3']:.5g} | {m['spread']:.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
