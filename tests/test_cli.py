import dataclasses
import importlib.util
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import calorix as cx
from calorix import cli, solver


def make_config(task, extra=None, *, n=2, matrix=None, geom=None,
                mesh=(16, 6, 4), T=0.5, seed=5, parity=None):
    if matrix is None:
        matrix = np.eye(n).tolist()
    if geom is None:
        geom = {"kind": "disk", "params": {"radius": 1.0}, "T": T}
    op = {"n": n, "matrix": matrix}
    if parity is not None:
        op["parity"] = parity
    cfg = {
        "operator": op,
        "geometry": geom,
        "mesh": {"m_angular": mesh[0], "m_time": mesh[1], "m_radial": mesh[2]},
        "task": {"name": task, **(extra or {})},
        "seed": seed,
    }
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(task, cfg_path, *more):
    return cli.main([task, "--config", cfg_path, *more])


def csv_body(path):
    """File content with the timestamp comment line dropped."""
    lines = path.read_bytes().splitlines(keepends=True)
    return b"".join(ln for ln in lines if not ln.startswith(b"# calorix "))


# -- catalog ----------------------------------------------------------------

def test_list_tasks_catalog():
    names = [name for name, _, _ in cli.list_tasks()]
    assert names == sorted(names)
    assert names == ["completeness", "poly-table", "solve", "verify-identities",
                     "verify-jumps", "verify-kernels"]
    assert cli.list_tasks() == cli.list_tasks()


def test_list_tasks_exit_code(capsys):
    assert cli.main(["list-tasks"]) == 0
    out = capsys.readouterr().out
    for name, _, _ in cli.list_tasks():
        assert name in out


# -- happy paths ------------------------------------------------------------

def test_poly_table_output(tmp_path, capsys):
    cfg = make_config("poly-table", {"max_degree": 2})
    code = run_cli("poly-table", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "o"))
    assert code == 0
    text = (tmp_path / "o" / "polynomials.csv").read_text()
    assert "x1^2 + 2*t" in text
    rows = [ln.split(",")[:2] for ln in text.splitlines() if not ln.startswith("#")]
    assert rows == [["alpha", "degree"], ["0 0", "0"], ["0 1", "1"], ["1 0", "1"],
                    ["0 2", "2"], ["1 1", "2"], ["2 0", "2"]]
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert all(a["passed"] for a in summary["assertions"])
    assert len(summary["polynomials"]) == 6
    assert "pass" in capsys.readouterr().out


def test_solve_reproduction_run(tmp_path):
    cfg = make_config("solve", {"degree": 3,
                                "data": {"kind": "caloric-poly",
                                         "alpha": [2, 1]}})
    code = run_cli("solve", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "o"))
    assert code == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    names = [a["name"] for a in summary["assertions"]]
    assert "reproduction" in names
    assert summary["approximant"]["residual"] < 1e-9
    assert summary["approximant"]["alphas"] == [list(a) for a in cx.enumerate_basis(2, 3)]
    assert all(type(a) is int for alpha in summary["approximant"]["alphas"] for a in alpha)


def test_star_geometry_run(tmp_path):
    geom = {"kind": "star", "params": {"r0": 1.0, "cos3": 0.15}, "T": 0.5}
    cfg = make_config("solve", {"degree": 2,
                                "data": {"kind": "caloric-poly",
                                         "alpha": [1, 1]}},
                      geom=geom)
    assert run_cli("solve", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "o")) == 0


def test_completeness_csv_columns(tmp_path):
    cfg = make_config("completeness",
                      {"degrees": [0, 2, 4],
                       "data": {"kind": "caloric-exponential",
                                "xi": [0.3, 0.4]}})
    assert run_cli("completeness", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "o")) == 0
    lines = (tmp_path / "o" / "study.csv").read_text().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert "seconds" not in header
    assert header.split(",")[0] == "degree"


def test_shipped_ball_completeness_run(tmp_path):
    config = pathlib.Path(__file__).parent.parent / "configs" / "completeness_ball.json"
    assert run_cli("completeness", str(config), "--out", str(tmp_path / "o")) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["config"]["operator"]["n"] == 3
    passed = {a["name"]: a["passed"] for a in summary["assertions"]}
    for name in ("monotone-residuals", "final-residual", "cross-consistent"):
        assert passed[name], name


def test_cross_validated_study_fits_once(tmp_path, monkeypatch):
    # cross validation re-scores the study's top-degree fit: one assembly and
    # one blocked QR sweep for the whole run.  On the disk each cap shell
    # enters as its 2 * 12 + 1 trigonometric modes of degree <= 12, and the
    # wall as its first keep = 12 // 2 + 1 time modes, mode k as its
    # 2 * (12 - 2k) + 1 modes; with the folded rhs row they fill less than
    # one block.  One more QR builds the time modes
    config = pathlib.Path(__file__).parent.parent / "configs" / "completeness_exp.json"
    mesh = cx.build_mesh(cx.CrossSection.disk(1.0), cx.make_coefficients(2, np.eye(2)),
                         0.5, 96, 48, 24)
    calls = {"assemble": 0, "qr": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr("calorix.solver.assemble_system",
                        counted("assemble", cx.assemble_system))
    monkeypatch.setattr("numpy.linalg.qr", counted("qr", np.linalg.qr))
    assert run_cli("completeness", str(config), "--out", str(tmp_path / "o")) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["cross_validation"]["degree"] == 12
    cap, keep = len(mesh.cap_points), 12 // 2 + 1
    # the study reports node rows, not the rows the sweep factors
    assert summary["study"]["rows"] == [cap + mesh.n_lateral] * 13
    rows = mesh.m_radial * 25 + sum(2 * (12 - 2 * k) + 1 for k in range(keep)) + 1
    assert rows == 600 + 91 + 1
    assert calls == {"assemble": 1, "qr": math.ceil(rows / solver._QR_BLOCK) + 1}


def test_identities_share_one_kernel_per_target(tmp_path, monkeypatch):
    # each target takes one barycentric matrix and one cap kernel per time
    # direction (u = 1 and u_H forward, u_H* adjoint), and the densities are
    # sampled once per run, however many targets there are; the mesh cap
    # kernel is the shell expansion, and G at the cap points is never formed
    calls = {"barycentric": 0, "cap kernel": 0, "direct G": 0, "density": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    potentials = sys.modules["calorix.potentials"]
    monkeypatch.setattr(potentials, "_barycentric_matrix",
                        counted("barycentric", potentials._barycentric_matrix))
    monkeypatch.setattr(potentials, "shell_fundamental_solution",
                        counted("cap kernel", potentials.shell_fundamental_solution))
    monkeypatch.setattr(potentials, "fundamental_solution",
                        counted("direct G", potentials.fundamental_solution))
    monkeypatch.setattr(cx.DensityField, "from_function", classmethod(
        counted("density", vars(cx.DensityField)["from_function"].__func__)))
    shipped = pathlib.Path(__file__).parent.parent / "configs" / "verify_identities.json"
    cfg = json.loads(shipped.read_text())
    assert (cfg["task"]["interior_probes"], cfg["task"]["exterior_probes"]) == (20, 20)
    assert run_cli("verify-identities", str(shipped), "--out", str(tmp_path / "o")) == 0
    assert calls == {"barycentric": 80, "cap kernel": 80, "direct G": 0, "density": 8}

    cfg["task"].update(interior_probes=3, exterior_probes=2)
    calls.update(density=0)
    assert run_cli("verify-identities", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "small")) == 0
    assert calls["density"] == 8


def test_values_file_relative_to_config_dir(tmp_path):
    cfg = make_config("solve", {"degree": 2,
                                "data": {"kind": "values-file",
                                         "path": "vals.json"}})
    A = cx.CoefficientMatrix(np.eye(2))
    mesh = cx.build_mesh(cx.CrossSection.disk(1.0), A, 0.5, 16, 6, 4)
    payload = {r: list(np.ones(mesh.region_nodes(r)[0].shape[0]))
               for r in ("sigma2", "sigma3")}
    (tmp_path / "vals.json").write_text(json.dumps(payload))
    assert run_cli("solve", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "o")) == 0


def test_out_dir_from_config_block(tmp_path):
    cfg = make_config("poly-table", {"max_degree": 1})
    cfg["output"] = {"directory": "nested_dir"}
    assert run_cli("poly-table", write_config(tmp_path, cfg)) == 0
    assert (tmp_path / "nested_dir" / "summary.json").exists()


# -- determinism ------------------------------------------------------------

def test_byte_identical_reruns(tmp_path):
    cfg = make_config("completeness",
                      {"degrees": [0, 2, 4],
                       "data": {"kind": "caloric-exponential",
                                "xi": [0.3, 0.4]}})
    path = write_config(tmp_path, cfg)
    assert run_cli("completeness", path, "--out", str(tmp_path / "a")) == 0
    assert run_cli("completeness", path, "--out", str(tmp_path / "b")) == 0
    assert csv_body(tmp_path / "a" / "study.csv") == \
        csv_body(tmp_path / "b" / "study.csv")
    # summary matches too once wall-clock timings are stripped
    sa = json.loads((tmp_path / "a" / "summary.json").read_text())
    sb = json.loads((tmp_path / "b" / "summary.json").read_text())
    sa["study"].pop("seconds")
    sb["study"].pop("seconds")
    assert sa == sb


def test_thread_count_does_not_change_output(tmp_path, monkeypatch):
    cfg = make_config("verify-jumps",
                      {"probes": 2, "kinds": ["double"], "tolerance": 0.2},
                      mesh=(48, 24, 12), T=1.0, seed=11)
    path = write_config(tmp_path, cfg)
    assert run_cli("verify-jumps", path, "--out", str(tmp_path / "t1"),
                   "--threads", "1") == 0
    assert run_cli("verify-jumps", path, "--out", str(tmp_path / "t2"),
                   "--threads", "2") == 0
    monkeypatch.setenv("CALORIX_THREADS", "2")
    assert run_cli("verify-jumps", path, "--out", str(tmp_path / "t3")) == 0
    b1 = csv_body(tmp_path / "t1" / "jumps.csv")
    assert b1 == csv_body(tmp_path / "t2" / "jumps.csv")
    assert b1 == csv_body(tmp_path / "t3" / "jumps.csv")


# -- failure exit code ------------------------------------------------------

def test_unmet_residual_target_exits_one(tmp_path, capsys):
    cfg = make_config("solve", {"degree": 2,
                                "data": {"kind": "abs-coordinate", "index": 0},
                                "max_residual": 1e-20})
    assert run_cli("solve", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "o")) == 1
    assert "task failed" in capsys.readouterr().err
    # artifacts still land on disk for post-mortem
    assert (tmp_path / "o" / "summary.json").exists()


def _nan_on_second_call(fn, nan):
    """fn, but its second call returns nan(the result) instead."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        out = fn(*args, **kwargs)
        return nan(out) if len(calls) == 2 else out
    return wrapper


def _failing_checks(tmp_path, task, cfg):
    assert run_cli(task, write_config(tmp_path, cfg), "--out", str(tmp_path / "o")) == 1
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    return [a["name"] for a in summary["assertions"] if not a["passed"]]


def test_nan_elliptic_value_fails_its_check(tmp_path, monkeypatch):
    # the second value is an interior target's; every check passes without it
    gauss_values = cli.elliptic_gauss_values
    monkeypatch.setattr(cli, "elliptic_gauss_values", lambda cs, A: _nan_on_second_call(
        gauss_values(cs, A), lambda value: np.nan))
    cfg = make_config("verify-identities",
                      {"interior_probes": 2, "exterior_probes": 2, "tolerance": 1e-2,
                       "surface_tolerance": 1e-2},
                      n=3, geom={"kind": "ball", "params": {"radius": 1.0}, "T": 1.0},
                      mesh=(8, 6, 4))
    assert _failing_checks(tmp_path, "verify-identities", cfg) == ["elliptic-interior"]


def test_nan_jump_fails_its_check(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "jump_probe", _nan_on_second_call(cli.jump_probe, lambda reports: [
        dataclasses.replace(r, jump_estimate=np.nan) for r in reports]))
    cfg = make_config("verify-jumps", {"probes": 2, "kinds": ["double"], "tolerance": 0.2},
                      mesh=(48, 24, 12), T=1.0, seed=11)
    assert _failing_checks(tmp_path, "verify-jumps", cfg) == ["jump-double"]


def test_nan_kernel_error_fails_its_check(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "moment_identity_check", _nan_on_second_call(
        cli.moment_identity_check, lambda err: np.nan))
    cfg = make_config("verify-kernels", {"probes": 2}, mesh=(8, 4, 4))
    assert _failing_checks(tmp_path, "verify-kernels", cfg) == ["mass"]


# -- config rejection -------------------------------------------------------

def reject(tmp_path, cfg, task=None, name="bad.json"):
    path = write_config(tmp_path, cfg, name)
    code = cli.main([task or cfg["task"]["name"], "--config", path])
    assert code == 2


def test_rejects_empty_config(tmp_path, capsys):
    path = tmp_path / "e.json"
    path.write_text("{}")
    assert cli.main(["solve", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text, shown", [("[1]", "[1]"), ('"abc"', "'abc'")])
def test_non_object_config_exits_two(tmp_path, capsys, text, shown):
    path = tmp_path / "c.json"
    path.write_text(text)
    assert cli.main(["solve", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: <root>: {shown} is not of type 'object'\n"


def test_rejects_unknown_root_key(tmp_path):
    cfg = make_config("poly-table", {"max_degree": 1})
    cfg["surprise"] = 1
    reject(tmp_path, cfg)


def test_rejects_unknown_task_key(tmp_path):
    cfg = make_config("poly-table", {"max_degree": 1, "max_degrees": 2})
    reject(tmp_path, cfg)


def test_rejects_asymmetric_matrix(tmp_path):
    cfg = make_config("poly-table", {"max_degree": 1},
                      matrix=[[1.0, 0.5], [0.2, 1.0]])
    reject(tmp_path, cfg)


def test_rejects_indefinite_matrix(tmp_path):
    cfg = make_config("poly-table", {"max_degree": 1},
                      matrix=[[1.0, 2.0], [2.0, 1.0]])
    reject(tmp_path, cfg)


def test_rejects_dimension_mismatch(tmp_path):
    # ball is a 3-space shape; operator says n=2
    geom = {"kind": "ball", "params": {"radius": 1.0}, "T": 0.5}
    cfg = make_config("poly-table", {"max_degree": 1}, geom=geom)
    reject(tmp_path, cfg)


def test_rejects_matrix_shape_mismatch(tmp_path):
    cfg = make_config("poly-table", {"max_degree": 1}, n=3)
    cfg["operator"]["matrix"] = [[1.0, 0.0], [0.0, 1.0]]
    reject(tmp_path, cfg)


def test_rejects_alpha_length_mismatch(tmp_path):
    cfg = make_config("solve", {"degree": 2,
                                "data": {"kind": "caloric-poly",
                                         "alpha": [1, 1, 1]}})
    reject(tmp_path, cfg)


@pytest.mark.parametrize("block, value, message", [
    ("task", [], "task: [] is not of type 'object'"),
    ("task", "solve", "task: 'solve' is not of type 'object'"),
    ("output", [], "output: [] is not of type 'object'"),
    ("output", {"directory": 5}, "output/directory: 5 is not of type 'string'"),
], ids=["task-list", "task-string", "output-list", "directory-int"])
def test_malformed_task_or_output_block_exits_two(tmp_path, capsys, block, value, message):
    # main reads the task name and the output directory before RunContext
    cfg = make_config("solve", {"degree": 1})
    cfg[block] = value
    assert run_cli("solve", write_config(tmp_path, cfg)) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_rejects_task_name_mismatch(tmp_path):
    cfg = make_config("poly-table", {"max_degree": 1})
    reject(tmp_path, cfg, task="solve")


def test_rejects_unknown_task(tmp_path):
    cfg = make_config("poly-table", {"max_degree": 1})
    path = write_config(tmp_path, cfg)
    assert cli.main(["frobnicate", "--config", path]) == 2


def test_rejects_missing_config_file(tmp_path):
    assert cli.main(["solve", "--config", str(tmp_path / "nope.json")]) == 2


def test_rejects_malformed_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{not json")
    assert cli.main(["solve", "--config", str(path)]) == 2


def test_rejects_missing_config_flag(capsys):
    assert cli.main(["solve"]) == 2
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("kinds, message", [
    ([], "task/verify-jumps/kinds: [] should be non-empty"),
    (["double", "double"], "task/verify-jumps/kinds: ['double', 'double'] has non-unique elements"),
], ids=["empty", "repeated"])
def test_jump_kinds_exit_two_when_empty_or_repeated(tmp_path, capsys, kinds, message):
    # no kinds would pass with zero checks, and a repeated kind would write
    # every row and check twice
    cfg = make_config("verify-jumps", {"probes": 1, "kinds": kinds})
    assert run_cli("verify-jumps", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_rejects_jumps_in_three_space(tmp_path):
    geom = {"kind": "ball", "params": {"radius": 1.0}, "T": 0.5}
    cfg = make_config("verify-jumps", {"probes": 1}, n=3, geom=geom)
    reject(tmp_path, cfg)


@pytest.mark.parametrize("task, extra, mesh, message", [
    ("verify-identities", {"interior_probes": 1, "exterior_probes": 2.0}, None,
     "task/verify-identities/exterior_probes: 2.0 is not of type 'integer'"),
    ("verify-kernels", {"probes": 2.0}, None,
     "task/verify-kernels/probes: 2.0 is not of type 'integer'"),
    ("poly-table", {"max_degree": 2.0}, None,
     "task/poly-table/max_degree: 2.0 is not of type 'integer'"),
    ("solve", {"degree": 4.0}, None, "task/solve/degree: 4.0 is not of type 'integer'"),
    ("completeness", {"degrees": [0, 2.0]}, None,
     "task/completeness/degrees/1: 2.0 is not of type 'integer'"),
    ("poly-table", {"max_degree": 1}, (16.0, 6, 4),
     "mesh/m_angular: 16.0 is not of type 'integer'"),
], ids=["exterior_probes", "probes", "max_degree", "degree", "degrees", "m_angular"])
def test_integral_float_for_integer_exits_two(tmp_path, capsys, task, extra, mesh, message):
    # JSON Schema counts 3.0 as an integer; the tasks pass these to range()
    cfg = make_config(task, extra, mesh=mesh or (16, 6, 4))
    assert run_cli(task, write_config(tmp_path, cfg), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("where, value, message", [
    (("geometry", "T"), math.nan, "geometry/T: nan is not of type 'number'"),
    (("geometry", "T"), math.inf, "geometry/T: inf is not of type 'number'"),
    (("geometry", "params", "radius"), math.inf,
     "geometry/params/radius: inf is not of type 'number'"),
    (("geometry", "params", "radius"), math.nan,
     "geometry/params/radius: nan is not of type 'number'"),
    (("task", "tolerance"), math.nan,
     "task/verify-identities/tolerance: nan is not of type 'number'"),
    (("operator", "matrix", 1, 0), -math.inf,
     "operator/matrix/1/0: -inf is not of type 'number'"),
], ids=["T-nan", "T-inf", "radius-inf", "radius-nan", "tolerance-nan", "matrix-inf"])
def test_non_finite_number_exits_two(tmp_path, capsys, where, value, message):
    # json.load reads NaN and Infinity, and json.dumps writes them
    cfg = make_config("verify-identities", {"interior_probes": 1, "exterior_probes": 1})
    node = cfg
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path = write_config(tmp_path, cfg)
    assert run_cli("verify-identities", path, "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_cli_import_does_not_load_jsonschema():
    root = pathlib.Path(__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, calorix.cli; print(' '.join(m for m in sys.modules if "
            "m.startswith(('jsonschema', 'referencing', 'attr', 'rpds'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.split() == []


def test_unsupported_schema_keyword_raises():
    with pytest.raises(ValueError, match="pattern"):
        list(cli._iter_errors({"type": "string", "pattern": "^a"}, "b"))
    with pytest.raises(ValueError, match="additionalProperties"):
        list(cli._iter_errors({"additionalProperties": {"type": "number"}}, {}))
    # raised whatever the value, not only where the keyword would apply
    with pytest.raises(ValueError, match="maximum"):
        list(cli._iter_errors({"maximum": 1}, "not a number"))
    # no schema uses const any more, so it raises even where it would hold
    with pytest.raises(ValueError, match="const"):
        list(cli._iter_errors({"const": "solve"}, "solve"))


# values a mutation may write; none is an integral float or non-finite, the
# two places where validate_config departs from JSON Schema on purpose
_MUTANT_VALUES = [-1, 0, 1, 2, 3, 5, 40, 10**30, -0.25, 0.5, 1e-9, 2.5, 1234567.5, "", "v",
                  "w", "x", "csv", "ball", "disk", "double", "solve", "caloric-poly",
                  True, False, None, [], [0], [1, 2], [0.5, "a"], [[0.5]], {},
                  {"kind": "disk"}, {"radius": 0.5}, {"kind": "abs-coordinate"}]
_MUTANT_KEYS = ["surprise", "probes", "kinds", "degree", "degrees", "data", "kind",
                "alpha", "xi", "index", "path", "parity", "params", "seed", "m_time",
                "output", "formats", "tolerance", "rcond", "max_degree"]


def _mutant(config, rng):
    """``config`` after 1-3 random edits: a value replaced, a key or list
    item dropped, or a key added, anywhere in the tree."""
    config = json.loads(json.dumps(config))
    for _ in range(int(rng.integers(1, 4))):
        slots, dicts = [], [config]
        stack = [config]
        while stack:
            node = stack.pop()
            for key in (node if isinstance(node, dict) else range(len(node))):
                slots.append((node, key))
                if isinstance(node[key], (dict, list)):
                    stack.append(node[key])
                    if isinstance(node[key], dict):
                        dicts.append(node[key])
        op = rng.integers(3)
        value = json.loads(json.dumps(_MUTANT_VALUES[rng.integers(len(_MUTANT_VALUES))]))
        if op == 0 and slots:
            node, key = slots[rng.integers(len(slots))]
            node[key] = value
        elif op == 1 and slots:
            node, key = slots[rng.integers(len(slots))]
            del node[key]
        else:
            dicts[rng.integers(len(dicts))][_MUTANT_KEYS[rng.integers(len(_MUTANT_KEYS))]] = value
    return config


def _outcome(config):
    try:
        cli.validate_config(config)
    except Exception as exc:  # any exception type and message is compared
        return type(exc).__name__, str(exc)
    return "valid", ""


def test_validation_matches_jsonschema_on_mutated_configs(monkeypatch):
    jsonschema = pytest.importorskip("jsonschema")

    def reference_errors(schema, value, path=()):
        for e in jsonschema.Draft202012Validator(schema).iter_errors(value):
            yield tuple(e.path), e.message

    root = pathlib.Path(__file__).parent.parent
    shipped = [json.loads(p.read_text()) for p in sorted((root / "configs").glob("*.json"))]
    # bounds that random edits seldom reach
    edges = [make_config("completeness", {"degrees": []}),
             make_config("solve", {"rcond": 1}), make_config("solve", {"rcond": 0}),
             make_config("solve", {"degree": -1}),
             make_config("poly-table", mesh=(3, 6, 4)),
             make_config("verify-jumps", {"kinds": ["double", "triple"]}),
             make_config("verify-jumps", {"kinds": []}),
             make_config("verify-jumps", {"kinds": ["double", "double"]})]
    rng = np.random.default_rng(20261018)
    corpus = shipped + edges + [_mutant(cfg, rng) for cfg in shipped for _ in range(150)]
    ours = [_outcome(cfg) for cfg in corpus]
    departures = [make_config("solve", {"degree": 4.0}),
                  make_config("solve", {"rcond": math.nan})]
    with monkeypatch.context() as m:
        m.setattr(cli, "_iter_errors", reference_errors)
        theirs = [_outcome(cfg) for cfg in corpus]
        assert [_outcome(cfg) for cfg in departures] == [("valid", "")] * 2
    assert ours == theirs
    assert [_outcome(cfg)[0] for cfg in departures] == ["ConfigInvalid"] * 2
    assert ours[:len(shipped)] == [("valid", "")] * len(shipped)
    assert {kind for kind, _ in ours} == {"valid", "ConfigInvalid"}
    for wording in ("is not of type", "is not one of", "is a required property",
                    "Additional properties", "should be non-empty", "less than the minimum",
                    "less than or equal to the minimum", "greater than or equal to the maximum",
                    "has non-unique elements"):
        assert any(wording in msg for _, msg in ours), wording


# -- console script ---------------------------------------------------------

def test_console_script_installed():
    exe = shutil.which("calorix")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "list-tasks"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "completeness" in proc.stdout


def test_catalog_names_every_schema_key():
    params = {name: text for name, _, text in cli.list_tasks()}
    assert set(params) == set(cli.TASKS)
    for name, spec in cli.TASKS.items():
        for key in spec.schema:
            assert re.search(rf"\b{key}\b", params[name]), (name, key)


def test_verify_kernels_run(tmp_path):
    cfg = make_config("verify-kernels", {"probes": 2}, mesh=(8, 4, 4))
    assert run_cli("verify-kernels", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "o")) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert [a["name"] for a in summary["assertions"]] == [
        "heat-pde", "conormal-kernel", "exp-pde", "exp-pde-adjoint", "mass",
        "vanishes-nonpositive-time"]


# -- input errors exit 2 with one line ----------------------------------------

def test_degenerate_data_exits_two(tmp_path, capsys):
    # exp(<x, xi> + t <xi, xi>) overflows on the boundary nodes
    cfg = make_config("solve", {"degree": 2,
                                "data": {"kind": "caloric-exponential",
                                         "xi": [30, 40]}})
    assert run_cli("solve", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "DegenerateData" in err and "Traceback" not in err
    assert err.count("\n") == 1


def _values_file_config():
    return make_config("solve", {"degree": 2,
                                 "data": {"kind": "values-file", "path": "vals.json"}})


# payload builders, from the node count of each v-parity region
MALFORMED_VALUES = {
    "list": lambda counts: [1, 2],
    "string": lambda counts: {r: "abc" for r in counts},
    "scalar": lambda counts: {r: 1.0 for r in counts},
    "null": lambda counts: {r: None for r in counts},
    "nested": lambda counts: {r: [[1.0]] * m for r, m in counts.items()},
    "ragged": lambda counts: {r: [[1.0], [1.0, 2.0]] for r in counts},
    "string-items": lambda counts: {r: ["1"] * m for r, m in counts.items()},
    "booleans": lambda counts: {r: [True] * m for r, m in counts.items()},
    "missing-region": lambda counts: {"sigma3": [1.0] * counts["sigma3"]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_VALUES))
def test_malformed_values_file_exits_two(tmp_path, capsys, name):
    # the payload must map each region to a flat list of numbers, one per node
    mesh = cx.build_mesh(cx.CrossSection.disk(1.0), cx.CoefficientMatrix(np.eye(2)),
                         0.5, 16, 6, 4)
    counts = {r: mesh.region_nodes(r)[0].shape[0] for r in ("sigma2", "sigma3")}
    (tmp_path / "vals.json").write_text(json.dumps(MALFORMED_VALUES[name](counts)))
    assert run_cli("solve", write_config(tmp_path, _values_file_config()),
                   "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: values file {tmp_path / 'vals.json'}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("which", ["config", "values-file"])
def test_non_utf8_file_exits_two(tmp_path, capsys, which):
    # a UTF-16 byte-order mark (ff fe) is not UTF-8
    cfg = _values_file_config()
    path = write_config(tmp_path, cfg)
    vals = tmp_path / "vals.json"
    vals.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    if which == "config":
        pathlib.Path(path).write_bytes(b"\xff\xfe" + json.dumps(cfg).encode("utf-16-le"))
    assert run_cli("solve", path, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    prefix = "config is not valid JSON" if which == "config" else f"values file {vals}"
    assert err.startswith(f"config error: {prefix}: ")
    assert "codec can't decode" in err and err.count("\n") == 1


def test_jump_offset_leaving_a_thin_section_exits_two(tmp_path, capsys):
    # the outermost jump offset is 0.05 of the diameter 2.4, so 0.12, and
    # crosses an ellipse 0.08 thick
    geom = {"kind": "ellipse", "params": {"a": 1.2, "b": 0.04}, "T": 0.5}
    cfg = make_config("verify-jumps", {"probes": 1}, geom=geom)
    assert run_cli("verify-jumps", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "OffsetTooLarge" in err and "Traceback" not in err
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_traced_pass_runs_the_cli(tmp_path, monkeypatch):
    # the benchmark's traced pass (perfbench/tracer.py) patches library hooks
    # by name; renaming or removing one breaks only that pass, so run it here
    # (without writing bytecode into the benchmark's directory)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    root = pathlib.Path(__file__).parent.parent
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", root / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    original = cli.main
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        code = cli.main(["verify-identities", "--config",
                         str(root / "configs" / "verify_identities.json"),
                         "--out", str(tmp_path / "o")])
    finally:
        tracer.restore()
    assert cli.main is original
    assert code == 0
    assert tracer.spans
    names = {span[tracer_module.NAME] for span in tracer.spans}
    for hook in ("cli.main", "cli.run_context", "cli.parallel_map",
                 "potentials.DensityField.from_function"):
        assert hook in names, hook
    assert tracer_module.layer_metrics(tracer.spans, 1)["trace.wall_s"] > 0.0


def test_traced_pass_runs_a_completeness_study(tmp_path, monkeypatch):
    # the traced pass reads the design shape from TrefftzSystem.matrix and
    # each fit's rank; no other tier-1 test calls those hooks
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    root = pathlib.Path(__file__).parent.parent
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", root / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        code = cli.main(["completeness", "--config",
                         str(root / "configs" / "completeness_ball.json"),
                         "--out", str(tmp_path / "o")])
    finally:
        tracer.restore()
    assert code == 0
    names = {span[tracer_module.NAME] for span in tracer.spans}
    assert "solver.assemble_system" in names
    metrics = tracer_module.layer_metrics(tracer.spans, 1)
    # the design is the rows the system holds, not its 5184 node rows
    A = cx.make_coefficients(3, [[2.0, 0.5, 0.0], [0.5, 1.5, 0.25], [0.0, 0.25, 1.0]])
    mesh = cx.build_mesh(cx.CrossSection.ball(1.0), A, 0.5, 24, 12, 6)
    system = cx.assemble_system(mesh, A, "v", 10)
    assert len(system.matrix) < len(system.weights)
    assert metrics["solver.design_mb"] == system.matrix.nbytes / 1e6
    assert metrics["solver.rank_ratio"] == 1.0
