"""frustgraph benchmark: one workload per run, checked, timed from outside.

    python3 perfbench/run.py --workload cut_scan --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout that holds ``src/frustgraph``.  Every job
goes through the CLI path ``cli.parse_document`` -> ``cli.run_command`` ->
``cli.emit_report(..., "json")`` on generated document text, one job at a
time (closed loop, one client), on one thread with BLAS/OpenMP pinned to 1.
Passes over the workload's fixed job list repeat until ``--seconds`` is
used up.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (one pass, the sum
of each job's mean time over the passes), ``job_s_p50`` (the median of
those per-job times), ``setup_s`` (the median of several fresh
interpreters importing frustgraph and generating the documents) and
``peak_rss_mb``.  The three times are in reference seconds: each is
scaled by host-speed probes taken just before and after it (see
``hostspeed.py``), so that the host's slow and fast periods cancel.

``--trace 1`` runs each job untraced and then, right after, traced by the
wrappers of ``tracing.py``, and prints the per-layer metrics (medians over
the passes) and the tracing overhead.

Each job's result is checked on the first pass by ``checks.py``; later
passes, and the traced ones, must reproduce its sha256 digest.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 when every job passed and 1 otherwise.  Spans, digests
and job times go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed  # pure Python: importing it loads no numpy

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cut_scan", "dense_verify", "group_bounds"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setup(workload: str, seed: int, env: dict) -> float:
    """Median set-up time of several fresh interpreters, in reference seconds."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        elapsed, before, after = map(float, done.stdout.split()[-3:])
        times.append(hostspeed.scale(elapsed, before, after))
    return statistics.median(times)


def digest(result: dict) -> str:
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Runner:
    """Runs jobs through the CLI, checks them and keeps their timings."""

    def __init__(self, jobs):
        import checks
        from frustgraph import cli, group

        self.checks, self.cli, self.group = checks, cli, group
        self.jobs = jobs
        self.flags = cli.CommandFlags()
        self.expected = [checks.expect(job) for job in jobs]
        self.digests: list[str | None] = [None] * len(jobs)
        self.results: list[dict | None] = [None] * len(jobs)
        self.job_times: list[list[float]] = [[] for _ in jobs]  # seconds
        self.ref_times: list[list[float]] = [[] for _ in jobs]  # reference seconds
        self.attempted = 0
        self.failed = 0

    def _program(self, job) -> list[str]:
        """The timed part: what a user of the CLI or library waits for."""
        cli = self.cli
        doc = cli.parse_document(job.text)
        commands = ("analyze", "canonical") if job.command == "bounds" else (job.command,)
        out = [cli.emit_report(cli.run_command(c, doc, self.flags), "json") for c in commands]
        if job.brute_force:
            spec = self.group.GroupSpec.from_generators(doc.generators)
            graph = self.group.commutation_graph(spec)
            out.append(str(self.group.clique_number_bruteforce(graph)))
        return out

    def _result(self, job, emitted: list[str]) -> dict:
        if job.command != "bounds":
            return json.loads(emitted[0])["result"]
        result = {
            "analyze": json.loads(emitted[0])["result"],
            "canonical": json.loads(emitted[1])["result"],
        }
        if job.brute_force:
            result["clique_bruteforce"] = int(emitted[2])
        return result

    def run_job(self, i: int) -> float | None:
        """Runs and judges job ``i``; returns its seconds, or None if it raised."""
        job = self.jobs[i]
        self.attempted += 1
        try:
            start = time.perf_counter()
            emitted = self._program(job)
            elapsed = time.perf_counter() - start
            result = self._result(job, emitted)
        except Exception:  # a job that raises is counted, the run goes on
            self.failed += 1
            print(f"job {job.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        self._judge(i, job, result)
        return elapsed

    def _judge(self, i, job, result) -> None:
        got = digest(result)
        if self.digests[i] is None:
            problems = self.checks.check(job, result, self.expected[i])
            self.digests[i], self.results[i] = got, result
        elif got != self.digests[i]:
            problems = [f"digest {got[:12]} differs from the first pass {self.digests[i][:12]}"]
        else:
            problems = []
        if problems:
            self.failed += 1
            print(f"job {job.name} failed its check: {'; '.join(problems)}", file=sys.stderr)

    def self_test(self) -> bool:
        """The checker must count a corrupted copy of a real result as failed."""
        for i, job in enumerate(self.jobs):
            if self.results[i] is not None:
                bad = self.checks.corrupt(job, self.results[i])
                return bool(self.checks.check(job, bad, self.expected[i]))
        return False


def overran(start: float, deadline: float) -> bool:
    """Whether a pass as long as the one begun at ``start`` would overrun."""
    now = time.perf_counter()
    return now + (now - start) > deadline


def measure(runner: Runner, deadline: float) -> int:
    """Untraced passes until the next would overrun ``deadline``; at least one.

    A host-speed probe before and after each job scales its time to
    reference seconds.
    """
    passes = 0
    while True:
        start = time.perf_counter()
        for i in range(len(runner.jobs)):
            before = hostspeed.probe()
            elapsed = runner.run_job(i)
            after = hostspeed.probe()
            if elapsed is not None:
                runner.job_times[i].append(elapsed)
                runner.ref_times[i].append(hostspeed.scale(elapsed, before, after))
        passes += 1
        if overran(start, deadline):
            return passes


def measure_traced(runner: Runner, deadline: float, tracer) -> tuple[list[dict], float]:
    """Passes in which each job runs untraced and then, right after, traced.

    Returns each pass's layer metrics and the tracing overhead of a pass:
    per job, the median over the passes of traced minus untraced time of
    the adjacent pair, in reference seconds, summed over the jobs.
    """
    layers, gaps = [], [[] for _ in runner.jobs]
    while True:
        start = time.perf_counter()
        tracer.reset()
        traced_s = 0.0
        for i in range(len(runner.jobs)):
            before = hostspeed.probe()
            plain = runner.run_job(i)
            between = hostspeed.probe()
            tracer.job = i + 1
            tracer.install()
            try:
                traced = runner.run_job(i)
            finally:
                tracer.uninstall()
            after = hostspeed.probe()
            if plain is not None:
                runner.job_times[i].append(plain)
                runner.ref_times[i].append(hostspeed.scale(plain, before, between))
            if traced is not None:
                traced_s += traced
                if plain is not None:
                    gaps[i].append(hostspeed.scale(traced, between, after) - runner.ref_times[i][-1])
        layers.append(dict(tracer.pass_metrics(), **{"trace.wall_s": traced_s}))
        if overran(start, deadline):
            return layers, sum(statistics.median(g) for g in gaps if g)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "frustgraph" / "__init__.py").is_file():
        print(f"error: no frustgraph sources at {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    # numpy reads these when it is first imported, so every import of numpy
    # or frustgraph in this process comes after this point
    for var in THREAD_VARS:
        os.environ[var] = "1"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    sys.path[:0] = [str(SRC), str(HERE)]

    setup_s = None if args.trace else probe_setup(args.workload, args.seed, env)

    import tracing
    import workloads

    jobs = workloads.make_jobs(args.workload, args.seed)
    runner = Runner(jobs)
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        tracer = tracing.Tracer()
        layers, overhead = measure_traced(runner, deadline, tracer)
        passes = len(layers)
    else:
        passes = measure(runner, deadline)
    self_test_ok = runner.self_test()

    per_job = [statistics.fmean(times) for times in runner.ref_times if times]
    samples = sum(len(times) for times in runner.job_times)
    units = {"wall_s": "s", "job_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    if args.trace:
        units = tracing.metric_units()
        values = {
            name: statistics.median(p[name] for p in layers)
            for name in units if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = overhead
    else:
        values = {
            "wall_s": sum(per_job),
            "job_s_p50": statistics.median(per_job) if per_job else 0.0,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: "
          f"{len(jobs)} jobs x {passes} passes, {samples} untraced job samples")
    for job, times, refs, dig in zip(jobs, runner.job_times, runner.ref_times, runner.digests):
        mean = f"{statistics.fmean(times):.4f} s" if times else "-"
        ref = f"{statistics.fmean(refs):.4f} ref s" if refs else ""
        print(f"  job {job.name:<16} mean {mean:>10} {ref:>14}  result sha256 {dig}")
    combined = hashlib.sha256("".join(d or "-" for d in runner.digests).encode()).hexdigest()
    print(f"  result digest {combined}")
    print(f"  fail_rate {runner.failed / runner.attempted:.4f} ratio "
          f"({runner.failed} of {runner.attempted} jobs)  checker self-test "
          f"{'ok' if self_test_ok else 'FAILED'}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "result_digest": combined,
        "jobs": [{"name": j.name, "digest": d, "seconds": t, "reference_seconds": r}
                 for j, d, t, r in zip(jobs, runner.digests, runner.job_times, runner.ref_times)],
        "metrics": metrics,
    }
    if args.trace:
        record["spans_last_pass"] = [list(span) for span in tracer.spans]
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    correct = runner.failed == 0 and self_test_ok
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
