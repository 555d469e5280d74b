"""Reading and checking the artifacts of one CLI run.

A run is normal when it exits 0 (every check passed) or 1 (some check
failed), wrote ``summary.json`` and the task's CSV, and its exit code agrees
with the checks recorded in ``summary.json``.  Anything else (exit 2, a
traceback, a missing artifact) is abnormal.

Each CSV body, everything below its two comment lines, is reduced to a
SHA-256 digest; all runs of one config must give the same digests.
"""

import csv
import hashlib
import json
import os

CSV_OF_TASK = {
    "completeness": "study",
    "verify-jumps": "jumps",
    "verify-identities": "identities",
}


def _csv_body(path):
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    if len(lines) < 2 or not all(line.startswith("# ") for line in lines[:2]):
        raise ValueError(f"{path}: expected two comment lines")
    return "".join(lines[2:])


def _verdicts(task_cfg, table):
    """Per-probe verdicts against the task's tolerance, and the worst
    error as a multiple of it; ``table`` is the CSV without its header."""
    name = task_cfg["name"]
    if name == "completeness":
        tol = task_cfg["final_max_residual"]
        final = float(table[-1][1])
        return [], final / tol
    if name == "verify-jumps":
        tol = task_cfg["tolerance"]
        errs = [(float(r[4]), tol) for r in table]
        return [e <= t for e, t in errs], max(e / t for e, t in errs)
    tol = task_cfg["tolerance"]
    surf_tol = task_cfg.get("surface_tolerance", 1e-3)
    errs = [(float(r[6]), surf_tol if r[0] == "elliptic-gauss" else tol)
            for r in table]
    return [e < t for e, t in errs], max(e / t for e, t in errs)


def inspect_run(out_dir, config, returncode, error=None):
    """Record of one run: normal or not, why, CSV digests and verdicts.

    ``error`` is a traceback or stderr text that reveals a crash.
    """
    rec = {"problem": None, "digests": {}, "passed": 0, "verdicts": 0,
           "worst_err_ratio": None}
    if error and "Traceback" in error:
        rec["problem"] = "traceback: " + error.strip().splitlines()[-1]
        return rec
    if returncode not in (0, 1):
        rec["problem"] = f"exit code {returncode}"
        return rec
    table_name = CSV_OF_TASK[config["task"]["name"]]
    summary_path = os.path.join(out_dir, "summary.json")
    csv_path = os.path.join(out_dir, table_name + ".csv")
    for path in (summary_path, csv_path):
        if not os.path.isfile(path):
            rec["problem"] = f"missing artifact {os.path.basename(path)}"
            return rec
    try:
        with open(summary_path, encoding="utf-8") as fh:
            checks = [a["passed"] for a in json.load(fh)["assertions"]]
        body = _csv_body(csv_path)
        table = list(csv.reader(body.splitlines()))[1:]
        probes, worst = _verdicts(config["task"], table)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        rec["problem"] = f"malformed artifact: {exc}"
        return rec
    if returncode != (0 if all(checks) else 1):
        rec["problem"] = f"exit code {returncode} disagrees with summary.json"
        return rec
    rec["digests"][table_name] = hashlib.sha256(body.encode()).hexdigest()
    rec["worst_err_ratio"] = worst
    verdicts = checks + probes
    rec["passed"] = sum(verdicts)
    rec["verdicts"] = len(verdicts)
    return rec


def summarize(records):
    """Attempted, failed, correct, problems, digests and pass_frac over one
    config's runs.

    ``correct`` needs every run normal and one set of CSV digests shared by
    all of them.
    """
    failed = [r for r in records if r["problem"]]
    digests = {json.dumps(r["digests"], sort_keys=True)
               for r in records if not r["problem"]}
    verdicts = sum(r["verdicts"] for r in records)
    pass_frac = sum(r["passed"] for r in records) / verdicts if verdicts else 0.0
    problems = sorted({r["problem"] for r in failed})
    if len(digests) > 1:
        problems.append(f"CSV bodies differ between runs: {len(digests)} digests")
    return {
        "attempted": len(records),
        "failed": len(failed),
        "correct": bool(records) and not failed and len(digests) == 1,
        "problems": problems,
        "digests": json.loads(digests.pop()) if len(digests) == 1 else None,
        "pass_frac": pass_frac,
    }
