"""Child-process entry of the benchmark; run.py starts it with the BLAS
environment pinned and the checkout's ``src`` first on PYTHONPATH.

    child.py setup CONFIG THREADS      print the monotonic time at which a
                                       RunContext is ready
    child.py serve CONFIG THREADS WORK KIND
                                       warm-up run, then one timed in-process
                                       CLI run per ``warm`` line and one
                                       reference sample of KIND per ``ref``
                                       line read from standard input
    child.py trace CONFIG THREADS WORK SECONDS SEED
                                       untraced and traced runs alternating,
                                       then the isolated layer probes
    child.py exact-build               seconds to build the exact basis
    child.py environment               Python, numpy and BLAS versions

The other modes print one JSON value as their last line of standard
output; ``serve`` prints one JSON line per request.
"""

import contextlib
import io
import json
import os
import shutil
import statistics
import sys
import time
import traceback

from artifacts import inspect_run
from workloads import MIN_SAMPLES


def _check_source():
    import calorix.cli

    src = os.environ["PERFBENCH_SRC"]
    found = os.path.abspath(calorix.cli.__file__)
    if os.path.commonpath([src, found]) != src:
        raise SystemExit(f"calorix imported from {found}, not {src}")


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def setup(config_path, threads):
    import calorix.cli as cli

    config = _load(config_path)
    cli.RunContext(config, os.path.dirname(config_path), "out", threads)
    return time.monotonic()


class CliRunner:
    """Runs the CLI in this process, one fresh output directory per run."""

    def __init__(self, config_path, threads, work):
        import calorix.cli

        self.cli = calorix.cli
        self.config = _load(config_path)
        self.argv = [self.config["task"]["name"], "--config", config_path,
                     "--threads", str(threads)]
        self.out = os.path.join(work, "out-inproc")

    def run(self):
        shutil.rmtree(self.out, ignore_errors=True)
        err = None
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(self.argv + ["--out", self.out])
            except Exception:
                rc, err = None, traceback.format_exc()
            seconds = time.perf_counter() - t0
        return seconds, inspect_run(self.out, self.config, rc, err)


def _reply(value):
    print(json.dumps(value), flush=True)


def serve(config_path, threads, work, kind):
    """Warm CLI runs and reference samples, as run.py asks for them."""
    import reference

    runner = CliRunner(config_path, threads, work)
    record = runner.run()[1]  # warm-up: fills caches, not timed
    reference.work(kind)
    _reply({"record": record})
    for line in sys.stdin:
        request = line.strip()
        if request == "warm":
            seconds, record = runner.run()
            _reply({"seconds": seconds, "record": record})
        elif request == "ref":
            _reply({"seconds": reference.seconds(kind)})
        else:
            raise SystemExit(f"unknown request {request!r}")


def trace(config_path, threads, work, seconds, seed):
    import probes
    from tracer import Tracer, layer_metrics

    runner = CliRunner(config_path, threads, work)
    records = [runner.run()[1]]
    plain, traced, per_run = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_SAMPLES or time.perf_counter() < deadline:
        dt, rec = runner.run()
        plain.append(dt)
        records.append(rec)
        tracer = Tracer()
        tracer.install()
        try:
            dt, rec = runner.run()
        finally:
            tracer.restore()
        traced.append(dt)
        records.append(rec)
        per_run.append(layer_metrics(tracer.spans, threads))
    metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics.update(probes.run(seed))
    return {"metrics": metrics, "records": records}


def environment():
    import platform

    import numpy as np

    blas = "unknown"
    with contextlib.suppress(KeyError, TypeError, ValueError):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas}


def main(argv):
    mode, args = argv[0], argv[1:]
    _check_source()
    if mode == "setup":
        result = setup(args[0], int(args[1]))
    elif mode == "serve":
        serve(args[0], int(args[1]), args[2], args[3])
        return
    elif mode == "trace":
        result = trace(args[0], int(args[1]), args[2], float(args[3]), int(args[4]))
    elif mode == "exact-build":
        import probes
        result = probes.exact_build()
    elif mode == "environment":
        result = environment()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
