"""Benchmark of contactloci: one process, one thread, closed loop.

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root (or any checkout of it).  The library is
imported from ``src/`` of that checkout.  A run builds the workload's job
list from the seed and checks every result.  The first round runs every
job; later rounds repeat the seeded jobs, not the fixed-parameter anchors
(which take up to 14 s), until the next round would end after
``--seconds`` seconds of measurement.  The end-to-end metrics cover the
seeded jobs, at reference host speed (``hostspeed.py``); the anchors and the
raw times are printed apart.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untimed
warm round, two traced rounds, and prints the per-layer table and metrics.
The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hostspeed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 3  # before the first round, and again every quarter of the run
CLI_PROBES = 5
CLI_SUBCOMMANDS = ("resolve", "cohomology", "floer", "nash", "euler", "scatter", "verify")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny job sizes, for the benchmark's own test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # import and build inputs, then exit
    return parser.parse_args(argv)


def import_library():
    """Import contactloci from this checkout's src/, never from elsewhere."""
    if not (SRC / "contactloci" / "__init__.py").is_file():
        raise SystemExit(f"error: no contactloci sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import contactloci

    if Path(contactloci.__file__).resolve().parent != (SRC / "contactloci").resolve():
        raise SystemExit(f"error: imported contactloci from {contactloci.__file__}")
    return contactloci


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "contactloci").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    try:
        commit = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit or "unknown (not a git checkout)",
        "src_sha256": source_digest(),
    }


def run_child(cmd, env=None) -> tuple[float, float]:
    """Run a child to its end and return its (start, end) on perf_counter."""
    # No timeout: with one, the wait polls with sleeps of up to 50 ms, which
    # would land in the measured time.
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    return start, time.perf_counter()


def timed_child(cmd, env=None) -> float:
    start, end = run_child(cmd, env)
    return end - start


def measure_setup(args, speed) -> list[tuple[float, float]]:
    """Intervals of fresh interpreters that import contactloci and build this
    workload's inputs, each between two host-speed probes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    intervals = []
    for _ in range(SETUP_PROBES):
        speed.probe()
        intervals.append(run_child(cmd))
        speed.probe()
    return intervals


class Runner:
    """Runs rounds over one job list and keeps every latency and failure."""

    def __init__(self, cl, jobs, tracer, speed):
        self.cl = cl
        self.jobs = jobs
        self.tracer = tracer
        self.speed = speed
        self.env = workloads.cli_env(str(ROOT))
        self.intervals = [[] for _ in jobs]  # (start, end) of each repetition
        self.failures = []  # (job index, reason)
        self.known = []  # (job index, reason) for documented defects
        self.attempted = 0
        self.output_bytes = []  # per round, stdout bytes of fresh processes

    def round(self, anchors: bool = True) -> float:
        """Run the job list once, the anchors only if asked, and return the
        summed raw latency."""
        wall = 0.0
        out_bytes = 0
        for index, job in enumerate(self.jobs):
            if job.anchor and not anchors:
                continue
            latency, error, out = self.run_one(index, job)
            wall += latency
            out_bytes += out
            if error is not None and job.kind == "cli" and job.args[0] in workloads.KNOWN_DEFECTS:
                self.known.append((index, error))
                continue
            self.attempted += 1
            if error is not None:
                self.failures.append((index, error))
        self.output_bytes.append(out_bytes)
        return wall

    def run_one(self, index, job):
        """Time one job and check its result.  The result dies on return, so
        it never adds to the memory peak of the next job."""
        self.tracer.job = index
        self.speed.probe()
        start = time.perf_counter()
        try:
            result = self.tracer.span("job." + job.kind, workloads.run_job,
                                      self.cl, job, self.tracer, str(ROOT), self.env)
        except Exception as exc:  # a raising job is a failed job
            latency = self.record(index, start)
            return latency, f"raised {type(exc).__name__}: {exc}", 0
        latency = self.record(index, start)
        active, self.tracer.active = self.tracer.active, False
        try:
            error = workloads.check_job(self.cl, job, result)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
        finally:
            self.tracer.active = active
        return latency, error, len(result[1]) if job.kind == "cli" else 0

    def record(self, index, start) -> float:
        end = time.perf_counter()
        self.speed.probe()
        self.intervals[index].append((start, end))
        return end - start

    def raw(self, index) -> list[float]:
        """Latencies of one job as the clock read them."""
        return [end - start for start, end in self.intervals[index]]

    def scaled(self, index) -> list[float]:
        """Latencies of one job at reference host speed."""
        return [self.speed.scaled(start, end) for start, end in self.intervals[index]]

    def loop(self, seconds: float, between=lambda: None) -> list[float]:
        """Rounds until the next would end after ``seconds``; at least one.
        Returns the seeded jobs' time per round.  ``between`` runs after
        each round, outside the clock."""
        rounds = []
        spent = 0.0
        while True:
            start = time.perf_counter()
            wall = self.round(anchors=not rounds)
            spent += time.perf_counter() - start
            if len(rounds) == 0:
                wall -= sum(self.raw(i)[0] for i, job in enumerate(self.jobs) if job.anchor)
            rounds.append(wall)
            between()
            if spent + statistics.median(rounds) > seconds:
                return rounds


def tail(values):
    """(value, percentile, jobs beyond): the highest percentile that still
    has at least ten jobs beyond it."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0, 0
    k = len(ordered) - 10
    return ordered[k - 1], 100.0 * k / len(ordered), 10


def end_to_end(args, runner, rounds, setups, out):
    # Over the seeded jobs, at reference host speed.  A job's latency is the
    # median of its repetitions; the list takes their sum.  The anchors run
    # once, so they are printed apart.
    seeded = [i for i, job in enumerate(runner.jobs) if not job.anchor]
    per_job = [statistics.median(runner.scaled(i)) for i in seeded]
    raw_wall = sum(statistics.median(runner.raw(i)) for i in seeded)
    setup_s = statistics.median(runner.speed.scaled(start, end) for start, end in setups)
    tail_ms, tail_pct, beyond = tail(per_job)
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-batch" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    failed = len(runner.failures)
    out(f"rounds: {len(rounds)} over {len(runner.jobs)} jobs, anchors in the first only; "
        "seeded jobs took " + ", ".join(f"{r:.3f}" for r in rounds) + " s")
    out(f"host speed: reference kernel median {runner.speed.median_ms():.4f} ms, "
        f"{1e3 * hostspeed.REFERENCE_S:.4f} ms at reference speed; raw wall_s {raw_wall:.4f}, "
        f"raw setup_s {statistics.median(end - start for start, end in setups):.4f}")
    out(f"job_tail_ms is the p{tail_pct:.2f} job latency ({beyond} of {len(per_job)} "
        f"per-job medians beyond it)")
    out(f"failed_ratio: {failed}/{runner.attempted} = {failed / runner.attempted:.4f}")
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(per_job), "s"),
        "job_p50_ms": (statistics.median(per_job) * 1e3, "ms"),
        "job_tail_ms": (tail_ms * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def cli_probe_ms(cmd, env) -> float:
    return 1e3 * statistics.median(timed_child(cmd, env) for _ in range(CLI_PROBES))


def import_ms(env) -> float:
    code = ("import time; t = time.perf_counter(); import contactloci; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(CLI_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        samples.append(float(proc.stdout))
    return 1e3 * statistics.median(samples)


def inproc_pass(cl, runner, tracer):
    """cli.main(argv) in this process for every command-line job, traced."""
    import contactloci.cli as cli_module

    tracer.active = True
    for index, job in enumerate(runner.jobs):
        if job.kind != "cli":
            continue
        tracer.job = index
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                cli_module.main(list(job.args[0]))
            except Exception:  # the known defects raise; their spans are kept
                pass
    tracer.active = False


def per_layer(args, cl, runner, tracer, out):
    env = runner.env
    untraced = runner.round()
    tracer.install()
    try:
        tracer.active = True
        traced = runner.round()
        tracer.active = False
        spans, counters = tracer.spans, tracer.counters
        tracer.reset()
        tracer.active = True
        runner.round()
        tracer.active = False
        repeat = tracer.counters
        tracer.reset()
        if args.workload == "cli-batch":
            inproc_pass(cl, runner, tracer)
    finally:
        tracer.active = False
        tracer.uninstall()
    drift = [f"{key}: {counters.get(key, 0)} then {repeat.get(key, 0)}"
             for key in tracing.EXACT_COUNTERS
             if key != "cli.output_bytes" and counters.get(key, 0) != repeat.get(key, 0)]
    if len(set(runner.output_bytes)) != 1:
        drift.append(f"cli.output_bytes per round: {runner.output_bytes}")
    inproc_spans = tracer.spans
    counters.update(tracer.counters)
    counters["cli.output_bytes"] = runner.output_bytes[1]

    offset = len(spans)
    all_spans = spans + [(name, s, e, p + offset if p >= 0 else -1, job)
                         for name, s, e, p, job in inproc_spans]
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.csv"
    tracing.write_spans(span_file, all_spans)
    drift += persisted_drift(args, runner.jobs, counters)

    metrics = {name: (value, "s") for name, value in tracing.time_metrics(all_spans).items()}
    for name in tracing.COUNT_METRICS:
        metrics[name] = (counters.get(name, 0), "count")
    metrics["cli.output_bytes"] = (counters["cli.output_bytes"], "bytes")
    # Per subcommand, over the jobs the contract expects to succeed.
    process, inproc = {}, {}
    succeeding = set()
    for index, job in enumerate(runner.jobs):
        if job.kind == "cli" and job.args[1] == workloads.EXIT_OK:
            succeeding.add(index)
            process.setdefault(job.args[0][0], []).extend(runner.raw(index))
    for name, start, end, _, job in inproc_spans:
        if name.startswith("cli.main.") and job in succeeding:
            inproc.setdefault(name[len("cli.main."):], []).append((end - start) / 1e6)
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.process_ms.{sub}"] = (
            1e3 * statistics.median(process[sub]) if sub in process else 0.0, "ms")
        metrics[f"cli.inproc_ms.{sub}"] = (
            statistics.median(inproc[sub]) if sub in inproc else 0.0, "ms")
    metrics["cli.import_ms"] = (import_ms(env), "ms")
    metrics["cli.interpreter_ms"] = (cli_probe_ms([sys.executable, "-c", "pass"], env), "ms")
    metrics["trace_overhead_s"] = (traced - untraced, "s")

    out(f"traced round {traced:.4f} s, untraced round {untraced:.4f} s, "
        f"trace_overhead_s {traced - untraced:.4f}; {len(all_spans)} spans in {span_file.name}")
    out(f"{'layer':<11} {'self_s':>10} {'calls':>8}  counters")
    for layer, seconds, calls, layer_counters in tracing.layer_table(all_spans, counters):
        shown = ", ".join(f"{k}={v}" + (" (computed)" if k == "oracle.milnor_monomials" else "")
                          for k, v in layer_counters.items())
        out(f"{layer:<11} {seconds:>10.4f} {calls:>8}  {shown}")
    for message in drift:
        out(f"COUNTER DRIFT: {message}")
    return metrics, drift


def persisted_drift(args, jobs, counters) -> list[str]:
    """Compare the exact counters with an earlier traced run of the same job
    list and sources in this checkout, and record them for the next."""
    path = OUT_DIR / "counters.json"
    jobs_digest = hashlib.sha256(repr(jobs).encode()).hexdigest()[:16]
    key = f"{args.workload}:{args.seed}:{int(args.smoke)}:{source_digest()}:{jobs_digest}"
    mine = {name: counters.get(name, 0) for name in tracing.EXACT_COUNTERS}
    try:
        seen = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        seen = {}
    earlier = seen.get(key)
    seen[key] = mine
    path.write_text(json.dumps(seen, sort_keys=True, indent=1), encoding="utf-8")
    if earlier is None or earlier == mine:
        return []
    return [f"{name}: earlier run {earlier.get(name)}, this run {mine[name]}"
            for name in mine if earlier.get(name) != mine[name]]


def main(argv=None) -> int:
    args = parse_args(argv)
    cl = import_library()
    jobs = workloads.build_jobs(args.workload, args.seed, args.smoke)
    if args.setup_probe:
        return 0

    def out(line: str) -> None:
        print(line, flush=True)

    out("env: " + json.dumps(environment(), sort_keys=True))
    out(f"workload {args.workload}, seed {args.seed}, {len(jobs)} jobs, "
        f"closed loop, one caller, one thread")
    tracer = tracing.Tracer()
    speed = hostspeed.HostSpeed()
    runner = Runner(cl, jobs, tracer, speed)
    drift = []
    if args.trace:
        metrics, drift = per_layer(args, cl, runner, tracer, out)
    else:
        # Set-up probes are spread over the run so that their median sees the
        # same host conditions as the rounds.
        setups = measure_setup(args, speed)
        last_probe = [time.perf_counter()]

        def probe_again() -> None:
            if time.perf_counter() - last_probe[0] >= args.seconds / 4:
                setups.extend(measure_setup(args, speed))
                last_probe[0] = time.perf_counter()

        rounds = runner.loop(args.seconds, probe_again)
        metrics = end_to_end(args, runner, rounds, setups, out)
        for index, job in enumerate(jobs):
            if job.anchor:
                out(f"anchor {job.label}: {runner.raw(index)[0]:.4f} s raw, "
                    f"{runner.scaled(index)[0]:.4f} s at reference speed")
    for index, reason in runner.failures:
        out(f"FAILED {jobs[index].label}: {reason}")
    for index, reason in sorted(set(runner.known)):
        out(f"KNOWN DEFECT {jobs[index].label}: {reason} "
            f"({workloads.KNOWN_DEFECTS[jobs[index].args[0]]}); not counted in failed")
    print(json.dumps({
        "correct": not runner.failures and not drift,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
