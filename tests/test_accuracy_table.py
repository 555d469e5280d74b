"""Every check of every shipped config, pinned near its value.

A numeric row bounds the check's value at no more than the larger of 10x
its value when the row was set and 1e-13; an exact row (a count, a label or
a zero) holds the value itself.  Rows only tighten: a change that moves a
value past its row edits the row on purpose and says so in CHANGES.md.
"""

import csv
import json
import pathlib

import numpy as np
import pytest

from calorix import cli

CONFIGS = pathlib.Path(__file__).parent.parent / "configs"

# config -> check -> pin: a float is an upper bound, anything else (an int,
# a bool) the exact value
TABLE = {
    "completeness_abs": {"monotone-residuals": 1e-13, "exploratory-label": True},
    "completeness_ball": {"monotone-residuals": 1e-13, "final-residual": 6.7e-9,
                          "cross-consistent": 5.5e-5},
    "completeness_exp": {"monotone-residuals": 1e-13, "exploratory-label": True,
                         "final-residual": 2.5e-11, "cross-consistent": 2.3e-4},
    "poly_table": {"basis-count": 6},
    "solve_poly": {"residual-finite": 1e-13, "reproduction": 1e-13},
    "verify_identities": {"partition-interior": 3.7e-10, "partition-exterior": 6.5e-12,
                          "representation-H": 1.7e-9, "representation-H*": 5.7e-10},
    "verify_jumps": {"jump-double": 1.0e-9, "jump-conormal_single": 1.1e-9},
    "verify_kernels": {"heat-pde": 1.0e-7, "conormal-kernel": 1.0e-8, "exp-pde": 3.4e-7,
                       "exp-pde-adjoint": 6.1e-7, "mass": 1e-13,
                       "vanishes-nonpositive-time": 0},
}


def _body(path):
    """The CSV rows under the header, the comment lines dropped."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


def _worst(rows, column, *keys):
    """The largest ``column`` of each group of rows that agree on ``keys``."""
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[key] for key in keys), []).append(float(row[column]))
    return {group: np.max(values) for group, values in groups.items()}  # keeps a NaN


def _check_values(out, summary):
    """Each check of the run by name, as the value that the check reads."""
    task = summary["task"]
    if task == "completeness":
        study = summary["study"]
        res = study["residuals"]
        values = {"monotone-residuals": max(b - a for a, b in zip(res, res[1:])),
                  "exploratory-label": study["exploratory"],
                  "final-residual": res[-1]}
        if "cross_validation" in summary:  # a ratio of 1 is the ideal
            values["cross-consistent"] = abs(summary["cross_validation"]["ratio"] - 1.0)
        return values
    if task == "solve":
        residual = summary["approximant"]["residual"]
        return {"residual-finite": residual, "reproduction": residual}
    if task == "poly-table":
        return {"basis-count": len(_body(out / "polynomials.csv"))}
    if task == "verify-identities":
        rows = _body(out / "identities.csv")
        by_class = _worst(rows, "error", "identity", "class")
        return {"partition-interior": by_class["partition", "interior"],
                "partition-exterior": by_class["partition", "exterior"],
                **{name: value for (name,), value in _worst(rows, "error", "identity").items()
                   if name != "partition"}}
    if task == "verify-jumps":
        return {f"jump-{kind}": value for (kind,), value
                in _worst(_body(out / "jumps.csv"), "relative_error", "kind").items()}
    values = {check: value for (check,), value
              in _worst(_body(out / "kernels.csv"), "error", "check").items()}
    values["vanishes-nonpositive-time"] = values.pop("dead-window")
    return values


@pytest.mark.parametrize("name", sorted(TABLE))
def test_shipped_config_checks_hold_their_rows(tmp_path, name):
    config = CONFIGS / f"{name}.json"
    task = json.loads(config.read_text())["task"]["name"]
    assert cli.main([task, "--config", str(config), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    values = _check_values(tmp_path, summary)
    rows = TABLE[name]
    assert sorted(a["name"] for a in summary["assertions"]) == sorted(rows)
    for check, pin in rows.items():
        if isinstance(pin, float):
            assert values[check] <= pin, (check, values[check])
        else:
            assert values[check] == pin, (check, values[check])


def test_table_covers_every_shipped_config():
    assert sorted(p.stem for p in CONFIGS.glob("*.json")) == sorted(TABLE)
