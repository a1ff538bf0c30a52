"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload cut_scan --seeds 1-10 [--out FILE]

For every metric it prints the median over the runs and the quartile
spread, (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``, next to the metric's bound in
BENCHMARK.json, and each run's result digest.  Runs are untraced,
sequential, from the root of the checkout, and measure BENCHMARK.json's
``run_seconds`` each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode not in (0, 1):  # 1 means a job failed its check; the result still prints
        raise RuntimeError(f"run.py exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    digest = next(line.split()[-1] for line in lines if line.strip().startswith("result digest"))
    return json.loads(lines[-1]), digest


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="an inclusive range lo-hi")
    parser.add_argument("--out", help="write the runs and the summary as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs = []
    for seed in seed_range(args.seeds):
        out, digest = run_once(args.workload, seed, spec["run_seconds"])
        runs.append({"seed": seed, "digest": digest, **out})
        print(f"seed {seed}: correct {out['correct']} failed {out['failed']}/{out['attempted']} "
              f"digest {digest[:16]} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items()
                         if k in bounds and bounds[k] is not None), flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name)}
        flag = ""
        if bounds.get(name) is not None and spread > bounds[name] / 3:
            flag = "  <-- above a third of the bound"
        print(f"{name:<44} median {med:.6g}  spread {spread:.4f}  bound {bounds.get(name)}{flag}")
    correct = all(r["correct"] for r in runs)
    print(f"all runs correct: {correct}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload,
                                              "runs": runs, "summary": summary}, indent=1))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
