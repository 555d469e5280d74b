"""calorix benchmark: cold and warm CLI runs of generated workloads.

Run from the root of a calorix checkout:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics: set-up time, cold and warm run
time, peak memory of a cold run and the share of the task's verdicts that
pass; the three times are scaled to a reference speed (reference.py).
``--trace 1`` prints the per-layer metrics of a traced pass, the
tracing overhead and the isolated layer probes.  Every CLI run's artifacts
are checked (see artifacts.py); the last line of standard output is the
result as one JSON object.  Workloads are defined in workloads.py; metric
definitions and baselines are in README.md.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import reference
import workloads
from artifacts import inspect_run, summarize

# BLAS and OpenMP pools would oversubscribe the CPUs that the CLI's own
# --threads pool uses, and make timings depend on the machine's core count.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(ROOT, "perfbench", "child.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
CHILD_TIMEOUT_S = 150
SETUP_REPEATS = 7
# share of the run spent on reference samples, at least one per timed sample
REFERENCE_SHARE = 0.1


class ChildFailed(RuntimeError):
    pass


def child_env():
    env = dict(os.environ, **PINNED_ENV)
    # an installed CLI runs from compiled bytecode, so the cold runs should
    # too, whatever this shell says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PERFBENCH_SRC"] = SRC
    return env


def spawn(argv, stdout_path):
    """Run a child to completion: (seconds, exit code, peak RSS in MB)."""
    with open(stdout_path, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=child_env(),
                                stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def child_json(mode, *args, work):
    """Run child.py in ``mode`` and parse the JSON on its last output line."""
    log = os.path.join(work, f"{mode}.log")
    _, rc, _ = spawn([CHILD, mode] + [str(a) for a in args], log)
    with open(log, encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    if rc != 0 or not lines:
        raise ChildFailed(f"child {mode} exited {rc}: {lines[-1] if lines else ''}")
    return json.loads(lines[-1])


def cold_run(config, config_path, threads, work):
    """The CLI as a user starts it, in a fresh process."""
    out = os.path.join(work, "out-cold")
    shutil.rmtree(out, ignore_errors=True)
    log = os.path.join(work, "cold.log")
    argv = ["-m", "calorix.cli", config["task"]["name"], "--config", config_path,
            "--out", out, "--threads", str(threads)]
    seconds, rc, rss = spawn(argv, log)
    with open(log, encoding="utf-8") as fh:
        return seconds, rss, inspect_run(out, config, rc, fh.read())


def setup_time(config_path, threads, work):
    """Seconds from spawning a process to a ready RunContext.

    The child stamps readiness with time.monotonic, which on Linux reads the
    same system-wide clock as the parent's spawn stamp.
    """
    t0 = time.monotonic()
    return child_json("setup", config_path, threads, work=work) - t0


class WarmServer:
    """A ``child.py serve`` process: warm CLI runs and reference samples on
    request, so that they interleave with the cold processes."""

    def __init__(self, config_path, threads, work, kind):
        self.log = open(os.path.join(work, "serve.log"), "w")
        self.proc = subprocess.Popen(
            [sys.executable, CHILD, "serve", config_path, str(threads), work, kind],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self.log, text=True)
        try:
            self.warmup = self._reply()
        except BaseException:
            self.close()
            raise

    def _reply(self):
        watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        try:
            return json.loads(line)
        except ValueError:
            raise ChildFailed(f"serve child gave {line.strip()!r}, "
                              f"see {self.log.name}") from None

    def ask(self, request):
        try:
            self.proc.stdin.write(request + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise ChildFailed(f"serve child ended, see {self.log.name}") from None
        return self._reply()

    def close(self):
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def end_to_end(workload, config, config_path, threads, work, seconds):
    """Set-up, cold and warm samples in turn until ``seconds`` have passed.

    A block of reference samples (reference.py) follows each timed sample,
    and one precedes the first; a block takes about REFERENCE_SHARE of the
    time of the sample before it.  Every timed sample is scaled by the
    reference's nominal time over the mean of the two blocks on either side
    of it.
    """
    kind = workloads.PARAMS[workload]["reference"]
    nominal = reference.NOMINAL_S[kind]
    raw = {"setup_s": [], "cold_run_s": [], "warm_run_s": []}
    scaled = {name: [] for name in raw}
    least = {"setup_s": SETUP_REPEATS, "cold_run_s": workloads.MIN_SAMPLES,
             "warm_run_s": workloads.MIN_SAMPLES}
    ref, rss = [], []
    server = WarmServer(config_path, threads, work, kind)
    try:
        records = [server.warmup["record"]]

        def setup():
            return setup_time(config_path, threads, work)

        def cold():
            dt, mb, rec = cold_run(config, config_path, threads, work)
            rss.append(mb)
            records.append(rec)
            return dt

        def warm():
            reply = server.ask("warm")
            records.append(reply["record"])
            return reply["seconds"]

        def reference_block(after_s):
            count = max(1, round(REFERENCE_SHARE * after_s / nominal))
            block = [server.ask("ref")["seconds"] for _ in range(count)]
            ref.extend(block)
            return statistics.fmean(block)

        steps = {"setup_s": setup, "cold_run_s": cold, "warm_run_s": warm}
        before = reference_block(0.0)
        deadline = time.perf_counter() + seconds

        def wanted(name):
            return time.perf_counter() < deadline or len(raw[name]) < least[name]

        while any(wanted(name) for name in steps):
            for name in steps:
                if not wanted(name):
                    continue
                dt = steps[name]()
                after = reference_block(dt)
                raw[name].append(dt)
                scaled[name].append(dt * nominal / (0.5 * (before + after)))
                before = after
    finally:
        server.close()
    summary = summarize(records)
    values = {name: statistics.median(v) for name, v in scaled.items()}
    values["peak_rss_mb"] = statistics.median(rss)
    values["pass_frac"] = summary["pass_frac"]
    info = {f"{k}_samples": len(v) for k, v in raw.items()}
    info.update({f"{k}_unscaled": statistics.median(v) for k, v in raw.items()},
                reference=kind, reference_samples=len(ref),
                reference_median_s=statistics.median(ref))
    return values, summary, info


def per_layer(config, config_path, threads, work, seconds, seed):
    exact = [child_json("exact-build", work=work) for _ in range(3)]
    traced = child_json("trace", config_path, threads, work, seconds, seed, work=work)
    summary = summarize(traced["records"])
    values = dict(traced["metrics"])
    values["polynomials.exact_build_s"] = statistics.median(exact)
    worst = [r["worst_err_ratio"] for r in traced["records"] if not r["problem"]]
    values["accuracy.worst_err_ratio"] = max(worst, default=0.0)
    return values, summary, {"cli_runs": len(traced["records"])}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "calorix", "cli.py")):
        print(f"no calorix sources under {SRC}; run from a calorix checkout",
              file=sys.stderr)
        return 2

    # every process of the run shares one CPU: the two CPUs of a shared host
    # run at different speeds, and a reference sample only tells the speed
    # of the CPU it ran on
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})

    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        config = workloads.make_config(args.workload, args.seed)
        config_path = os.path.join(work, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=1)
        threads = workloads.THREADS
        # this untimed first import also writes the bytecode cache, which an
        # installed CLI has
        env = child_json("environment", work=work)
        try:
            if args.trace:
                values, summary, info = per_layer(
                    config, config_path, threads, work, args.seconds, args.seed)
            else:
                values, summary, info = end_to_end(
                    args.workload, config, config_path, threads, work, args.seconds)
        except ChildFailed as exc:
            print(f"benchmark child failed: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)

    # names and units of the metrics come from BENCHMARK.json, so a metric
    # listed there and not measured is an error here
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec}
    env.update(nproc=len(allowed), cpu=cpu, cli_threads=threads, pinned=PINNED_ENV)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    print("csv_sha256 " + json.dumps(summary["digests"], sort_keys=True))
    for problem in summary["problems"]:
        print(f"problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:.6g} {unit}")
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
