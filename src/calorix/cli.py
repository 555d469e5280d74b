"""Config-driven command line front end.

Each invocation runs one task against a JSON config, writes CSV/JSON
artifacts, prints a summary table, and exits 0 only if every assertion of
the task passed (1 on a failed assertion, 2 on an invalid config or input).

Configs are checked against schemas held as data (the root schema, each
task's keys, each geometry's params) by a small interpreter of the JSON
Schema keywords those schemas use.  It words its messages as JSON Schema
validators do, except that an integer must be written without a fraction
(3, not 3.0) and every number must be finite.
"""

import argparse
import csv
import datetime
import functools
import json
import math
import operator
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .core import conormal_kernel_source, fundamental_solution, make_coefficients
from .errors import CalorixError, ConfigInvalid, TaskFailed
from .geometry import CrossSection, build_mesh
from .polynomials import caloric_poly, enumerate_basis, moment_identity_check
from .potentials import (
    CaloricExponentialField,
    ConstantField,
    DensityField,
    elliptic_gauss_values,
    jump_probe,
    representation_discrepancy,
    representation_values,
)
from .solver import (
    BoundaryData,
    completeness_study,
    cross_validate,
    solve_dirichlet,
)

# ---------------------------------------------------------------------------
# config schema (the task registry and the root schema follow the tasks)

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_COUNT = {"type": "integer", "minimum": 1}
_DEGREE = {"type": "integer", "minimum": 0}
_RCOND = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}

_MATRIX_SCHEMA = {
    "type": "array",
    "items": {"type": "array", "items": {"type": "number"}},
}

_DATA_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["caloric-poly", "caloric-exponential",
                          "abs-coordinate", "values-file"]},
        "alpha": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "xi": {"type": "array", "items": {"type": "number"}},
        "index": {"type": "integer", "minimum": 0},
        "path": {"type": "string"},
    },
}


class GeometrySpec(NamedTuple):
    """One geometry kind: its dimension, the schema of its params (all
    required) and the CrossSection factory that takes them as keywords."""

    n: int
    params: dict
    build: Callable


GEOMETRIES = {
    "disk": GeometrySpec(2, {"radius": _POSITIVE}, CrossSection.disk),
    "ellipse": GeometrySpec(2, {"a": _POSITIVE, "b": _POSITIVE}, CrossSection.ellipse),
    "star": GeometrySpec(2, {"r0": _POSITIVE, "cos3": {"type": "number"}},
                         lambda r0, cos3: CrossSection.star(r0, (0.0, 0.0, cos3))),
    "ball": GeometrySpec(3, {"radius": _POSITIVE}, CrossSection.ball),
    "ellipsoid": GeometrySpec(3, {"a": _POSITIVE, "b": _POSITIVE, "c": _POSITIVE},
                              CrossSection.ellipsoid),
}


def _is_integer(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return _is_integer(value) or (isinstance(value, float) and math.isfinite(value))


# "integer" is a Python int and "number" a finite int or float (json.load
# accepts NaN and Infinity); JSON Schema would also take 3.0 as an integer,
# which the tasks then pass to range()
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "integer": _is_integer,
    "number": _is_number,
}

# numeric bound keyword: (violated(value, bound), wording)
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum"),
}


def _iter_errors(schema, value, path=()):
    """Yield (path, message) for each violation of ``schema`` by ``value``,
    in the schema's keyword order, worded as JSON Schema validators word
    them.  Only the keywords the config schemas use are understood; any
    other raises, so no schema rule is silently ignored.  ``enum`` compares
    with ==, as the schemas list only strings; ``uniqueItems`` does too, so
    unlike JSON Schema it counts true and 1 as equal items."""
    for key, arg in schema.items():
        if key == "type":
            if not _TYPES[arg](value):
                yield path, f"{value!r} is not of type {arg!r}"
        elif key == "enum":
            if value not in arg:
                yield path, f"{value!r} is not one of {arg!r}"
        elif key in _BOUNDS:
            violated, wording = _BOUNDS[key]
            if _is_number(value) and violated(value, arg):
                yield path, f"{value!r} is {wording} of {arg!r}"
        elif key == "items":
            if isinstance(value, list):
                for i, item in enumerate(value):
                    yield from _iter_errors(arg, item, path + (i,))
        elif key == "minItems":
            if isinstance(value, list) and len(value) < arg:
                yield path, f"{value!r} " + ("should be non-empty" if arg == 1 else "is too short")
        elif key == "uniqueItems":
            if arg and isinstance(value, list) and any(
                    a == b for i, a in enumerate(value) for b in value[:i]):
                yield path, f"{value!r} has non-unique elements"
        elif key == "required":
            if isinstance(value, dict):
                for name in arg:
                    if name not in value:
                        yield path, f"{name!r} is a required property"
        elif key == "properties":
            if isinstance(value, dict):
                for name, sub in arg.items():
                    if name in value:
                        yield from _iter_errors(sub, value[name], path + (name,))
        elif key == "additionalProperties" and arg is False:
            if isinstance(value, dict):
                extras = sorted(k for k in value if k not in schema.get("properties", {}))
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    yield path, ("Additional properties are not allowed (%s %s unexpected)"
                                 % (", ".join(map(repr, extras)), verb))
        else:
            raise ValueError(f"unsupported config schema keyword {key!r}: {arg!r}")


def _raise_first_error(schema, value, prefix=()):
    """Raise ConfigInvalid for the violation with the least path, ties going
    to the first in keyword order, located by ``prefix`` plus its path."""
    error = min(_iter_errors(schema, value), key=lambda e: e[0], default=None)
    if error:
        path, message = error
        where = "/".join(str(p) for p in prefix + path) or "<root>"
        raise ConfigInvalid(f"{where}: {message}")


def validate_config(config):
    """Raise ConfigInvalid on any schema violation; returns nothing."""
    _raise_first_error(_CONFIG_SCHEMA, config)

    task = config["task"]
    name = task["name"]
    task_schema = {
        "type": "object",
        "additionalProperties": False,
        "properties": {"name": {}, **TASKS[name].schema},
    }
    _raise_first_error(task_schema, task, ("task", name))

    geom = config["geometry"]
    spec = GEOMETRIES[geom["kind"]]
    params_schema = {
        "type": "object",
        "additionalProperties": False,
        "required": sorted(spec.params),
        "properties": spec.params,
    }
    _raise_first_error(params_schema, geom["params"], ("geometry", "params"))

    n = config["operator"]["n"]
    matrix = config["operator"]["matrix"]
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ConfigInvalid(f"operator/matrix: expected a {n}x{n} matrix")
    if n != spec.n:
        raise ConfigInvalid(
            f"geometry/{geom['kind']}: needs n={spec.n}, operator has n={n}")


def _read_json(path, unreadable, invalid):
    """The JSON document in the file at ``path``; ConfigInvalid, prefixed
    ``unreadable`` if it cannot be opened, ``invalid`` if not UTF-8 JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"{unreadable}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigInvalid(f"{invalid}: {exc}") from exc


class RunContext:
    """Validated config turned into live objects.  ``threads`` is accepted
    for compatibility and ignored: runs are serial."""

    def __init__(self, config, config_dir, out_dir, threads):
        validate_config(config)
        self.config = config
        self.config_dir = config_dir
        self.out_dir = out_dir
        try:
            self.A = make_coefficients(config["operator"]["n"],
                                       config["operator"]["matrix"])
            geom = config["geometry"]
            self.cs = GEOMETRIES[geom["kind"]].build(**geom["params"])
        except (CalorixError, ValueError) as exc:
            raise ConfigInvalid(str(exc)) from exc
        self.parity = config["operator"].get("parity", "v")
        self.T = float(config["geometry"]["T"])
        mesh_cfg = config["mesh"]
        try:
            self.mesh = build_mesh(self.cs, self.A, self.T,
                                   mesh_cfg["m_angular"], mesh_cfg["m_time"],
                                   mesh_cfg["m_radial"])
        except CalorixError as exc:
            raise ConfigInvalid(str(exc)) from exc
        self.seed = int(config.get("seed", 0))
        self.rng = np.random.default_rng(self.seed)
        self.formats = config.get("output", {}).get("formats", ["csv", "json"])

    @property
    def task_cfg(self):
        return self.config["task"]

    def parallel_map(self, fn, items):
        """[fn(it) for it in items].  A serial map, kept as a method because
        the perfbench tracer patches it to parent the per-item spans of a
        traced run (``--trace 1``) under one ``cli.parallel_map`` span."""
        return [fn(it) for it in items]


# ---------------------------------------------------------------------------
# report writing

def _fmt_cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def write_csv(path, rows, header_comment_lines):
    """Header comments, then the table; '%.17g' floats, LF endings.

    The first comment line carries the timestamp and is the only
    run-dependent byte in the file.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for line in header_comment_lines:
            fh.write("# " + line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        for row in rows:
            writer.writerow([_fmt_cell(c) for c in row])


def _canonical_config(config):
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


class Reporter:
    """Collects tables and assertions for one run, then writes artifacts."""

    def __init__(self, ctx, task_name):
        self.ctx = ctx
        self.task_name = task_name
        self.tables = {}
        self.assertions = []
        self.extra_json = {}

    def add_table(self, name, rows):
        self.tables[name] = rows

    def check(self, name, passed, detail):
        self.assertions.append(
            {"name": name, "passed": bool(passed), "detail": detail})

    def finish(self):
        os.makedirs(self.ctx.out_dir, exist_ok=True)
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        comments = [
            f"calorix {__version__} {self.task_name} {stamp}",
            f"config {_canonical_config(self.ctx.config)}",
        ]
        written = []
        if "csv" in self.ctx.formats:
            for name, rows in self.tables.items():
                path = os.path.join(self.ctx.out_dir, f"{name}.csv")
                write_csv(path, rows, comments)
                written.append(path)
        summary = {
            "version": __version__,
            "task": self.task_name,
            "seed": self.ctx.seed,
            "config": self.ctx.config,
            "assertions": self.assertions,
            **self.extra_json,
        }
        if "json" in self.ctx.formats:
            path = os.path.join(self.ctx.out_dir, "summary.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True)
                fh.write("\n")
            written.append(path)

        width = max((len(a["name"]) for a in self.assertions), default=4)
        print(f"task {self.task_name}: {len(self.assertions)} checks")
        for a in self.assertions:
            status = "pass" if a["passed"] else "FAIL"
            print(f"  {a['name']:<{width}}  {status}  {a['detail']}")
        for path in written:
            print(f"  wrote {path}")
        failing = [a for a in self.assertions if not a["passed"]]
        if failing:
            raise TaskFailed(f"{failing[0]['name']}: {failing[0]['detail']}")


# ---------------------------------------------------------------------------
# shared probe helpers

def _radial_points(ctx, count, frac_range):
    """Random points at a radial fraction in frac_range of the section's
    radius along their direction (<1 inside, >1 outside)."""
    out = []
    for _ in range(count):
        d = ctx.rng.normal(size=ctx.A.n)
        d /= np.linalg.norm(d)
        frac = ctx.rng.uniform(*frac_range)
        out.append(frac * float(ctx.cs.radius(d[None, :])[0]) * d)
    return out


_FD_STEP = float(np.finfo(float).eps) ** 0.25


def _parabolic_residual(A, f, z, tau, sign):
    """E f - sign * df/dtau at (z, tau) by central differences, for a scalar
    field f(z, tau): the residual of H for sign=+1 and of H* for sign=-1
    (the sign convention of CaloricExponentialField)."""
    n = A.n
    h = _FD_STEP
    lap = 0.0
    for i in range(n):
        for j in range(n):
            a = A.a[i, j]
            if a == 0.0:
                continue
            ei = np.zeros(n); ei[i] = h
            ej = np.zeros(n); ej[j] = h
            lap += a * (f(z + ei + ej, tau) - f(z + ei - ej, tau)
                        - f(z - ei + ej, tau) + f(z - ei - ej, tau)) / (4.0 * h * h)
    dt = (f(z, tau + h) - f(z, tau - h)) / (2.0 * h)
    return lap - sign * dt


# ---------------------------------------------------------------------------
# tasks

def _task_verify_kernels(ctx, rep):
    """Finite-difference checks that the kernel and its companions satisfy
    the defining differential identities, plus the unit-mass property."""
    cfg = ctx.task_cfg
    probes = cfg.get("probes", 10)
    tol = cfg.get("tolerance", 1e-5)
    A, n = ctx.A, ctx.A.n
    rows = [["probe", "check", "value", "reference", "error"]]
    kernel = functools.partial(fundamental_solution, A)
    errs = {"heat-pde": [], "conormal-kernel": [], "exp-pde": [],
            "exp-pde-adjoint": [], "mass": []}
    for k in range(probes):
        z = ctx.rng.normal(size=n) * 0.8
        tau = ctx.rng.uniform(0.3, 1.0)
        g = float(fundamental_solution(A, z, tau))
        r = float(_parabolic_residual(A, kernel, z, tau, +1))
        err = abs(r) / max(abs(g), 1.0)
        errs["heat-pde"].append(err)
        rows.append([k, "heat-pde", r, 0.0, err])

        nu = ctx.rng.normal(size=n); nu /= np.linalg.norm(nu)
        x = z + ctx.rng.normal(size=n)
        h = _FD_STEP
        step = h * (A.a @ nu)
        fd = (float(fundamental_solution(A, x - (z + step), tau))
              - float(fundamental_solution(A, x - (z - step), tau))) / (2.0 * h)
        ker = float(conormal_kernel_source(A, x[None, :], z[None, :],
                                           nu[None, :], tau)[0])
        err = abs(fd - ker) / max(abs(ker), 1.0)
        errs["conormal-kernel"].append(err)
        rows.append([k, "conormal-kernel", ker, fd, err])

        xi = ctx.rng.normal(size=n) * 0.5
        for check, sign in (("exp-pde", +1), ("exp-pde-adjoint", -1)):
            def u(y, s, field=CaloricExponentialField(A, xi, sign)):
                return float(field.value(y, s)[0])
            r = _parabolic_residual(A, u, z, tau, sign)
            err = abs(r) / max(abs(u(z, tau)), 1.0)
            errs[check].append(err)
            rows.append([k, check, r, 0.0, err])

        # unit mass = moment identity at the zero multi-index
        err = moment_identity_check(A, (0,) * n, (z, tau),
                                    resolution=80 if n <= 2 else 48)
        errs["mass"].append(err)
        rows.append([k, "mass", "", 1.0, err])

    # vanishing for non-positive time offsets: exact, not finite-difference
    z = ctx.rng.normal(size=n)
    dead = np.max([abs(float(fundamental_solution(A, z, tau))) for tau in (0.0, -0.5)])
    rows.append(["-", "dead-window", dead, 0.0, dead])

    rep.add_table("kernels", rows)
    for name, es in errs.items():
        worst = np.max(es)  # a NaN error fails its check
        rep.check(name, worst < tol, f"max relative residual {worst:.3e} (tol {tol:g})")
    rep.check("vanishes-nonpositive-time", dead == 0.0, f"max |G| at tau<=0 is {dead:g}")


def _task_verify_jumps(ctx, rep):
    cfg = ctx.task_cfg
    if ctx.A.n != 2:
        raise ConfigInvalid("verify-jumps runs on planar cross-sections (n=2)")
    probes = cfg.get("probes", 10)
    kinds = cfg.get("kinds", ["double", "conormal_single"])
    tol = cfg.get("tolerance", 1e-2)
    mesh, A = ctx.mesh, ctx.A

    def random_density():
        c = ctx.rng.normal(size=7)
        def gen(p, t, nu):
            th = np.arctan2(p[:, 1], p[:, 0])
            ang = (c[0] + c[1] * np.cos(th) + c[2] * np.sin(th)
                   + c[3] * np.cos(2 * th) + c[4] * np.sin(2 * th))
            return ang * (1.0 + c[5] * t + c[6] * t * t)
        return DensityField.from_function(mesh, "sigma3", gen)

    K = mesh.tnodes.shape[0]
    time_ok = np.nonzero((mesh.tnodes > 0.1 * mesh.T)
                         & (mesh.tnodes < 0.9 * mesh.T))[0]

    jobs = []
    attempts = 0
    while len(jobs) < probes and attempts < 50 * probes:
        attempts += 1
        phi = random_density()
        b = int(ctx.rng.integers(0, mesh.n_boundary))
        k = int(time_ok[ctx.rng.integers(0, time_ok.size)])
        node = b * K + k
        # relative error needs a non-small density value at the node
        if abs(phi.values[node]) < 0.2 * float(np.max(np.abs(phi.values))):
            continue
        jobs.append((phi, node))
    rows = [["probe", "kind", "jump", "predicted", "relative_error"]]

    def run(job):
        phi, node = job
        return jump_probe(mesh, A, phi, node, tuple(kinds))

    worst = {k: 0.0 for k in kinds}
    for i, reports in enumerate(ctx.parallel_map(run, jobs)):
        for kind, r in zip(kinds, reports):
            rows.append([i, kind, r.jump_estimate, r.predicted_jump, r.relative_error])
            worst[kind] = np.maximum(worst[kind], r.relative_error)

    rep.add_table("jumps", rows)
    for kind in kinds:
        rep.check(f"jump-{kind}", worst[kind] <= tol,
                  f"max relative error {worst[kind]:.3e} over {len(jobs)} probes (tol {tol:g})")


def _task_verify_identities(ctx, rep):
    cfg = ctx.task_cfg
    n_int = cfg.get("interior_probes", 20)
    n_ext = cfg.get("exterior_probes", 20)
    tol = cfg.get("tolerance", 1e-6)
    surf_tol = cfg.get("surface_tolerance", 1e-3)
    mesh, A, cs = ctx.mesh, ctx.A, ctx.cs
    rows = [["identity", "class", "x", "t", "value", "expected", "error"]]

    def fmt_x(x):
        return " ".join("%.17g" % c for c in x)

    # interior targets, then exterior ones
    targets = [(x, ctx.rng.uniform(0.1, 0.9) * ctx.T)
               for count, fracs in ((n_int, (0.15, 0.8)), (n_ext, (1.3, 1.8)))
               for x in _radial_points(ctx, count, fracs)]
    classes = ["interior"] * n_int + ["exterior"] * n_ext

    xi = ctx.rng.normal(size=A.n) * 0.5
    fields = {"partition": ConstantField(),
              "H": CaloricExponentialField(A, xi, sign=+1),
              "H*": CaloricExponentialField(A, xi, sign=-1)}
    values, errors = {}, {}
    # u = 1 (the partition identity) and u_H share the forward kernel at
    # each target, u_H* takes the adjoint one
    for which, names in (("H", ("partition", "H")), ("H*", ("H*",))):
        represent = representation_values(mesh, A, [fields[k] for k in names], which)
        out = ctx.parallel_map(represent, targets)
        del represent  # release this direction's densities before the next samples its own
        for k, name in enumerate(names):
            values[name] = [v[k] for v in out]
            errors[name] = [representation_discrepancy(fields[name], tgt, v, cls)
                            for tgt, v, cls in zip(targets, values[name], classes)]

    errs = errors["partition"]
    for (x, t), cls, v, e in zip(targets, classes, values["partition"], errs):
        rows.append(["partition", cls, fmt_x(x), t, v, 1.0 if cls == "interior" else 0.0, e])
    worst_pi, worst_pe = np.max(errs[:n_int]), np.max(errs[n_int:])
    rep.check("partition-interior", worst_pi < tol,
              f"max |value-1| = {worst_pi:.3e} (tol {tol:g})")
    rep.check("partition-exterior", worst_pe < tol,
              f"max |value| = {worst_pe:.3e} (tol {tol:g})")

    for which in ("H", "H*"):
        for (x, t), cls, e in zip(targets, classes, errors[which]):
            rows.append([f"representation-{which}", cls, fmt_x(x), t, e, 0.0, e])
        worst = np.max(errors[which])
        rep.check(f"representation-{which}", worst < tol,
                  f"max discrepancy {worst:.3e} (tol {tol:g})")

    if A.n >= 3:
        gauss = elliptic_gauss_values(cs, A)  # after the densities are released
        wi = np.max([abs(gauss(x) - 1.0) for x, _ in targets[:n_int]])
        we = np.max([abs(gauss(x)) for x, _ in targets[n_int:]])
        ws = 0.0
        for _ in range(n_int):
            d = ctx.rng.normal(size=A.n); d /= np.linalg.norm(d)
            xs = float(cs.radius(d[None, :])[0]) * d
            v = gauss(xs)
            ws = np.maximum(ws, abs(v - 0.5))
            rows.append(["elliptic-gauss", "surface", fmt_x(xs), "", v, 0.5,
                         abs(v - 0.5)])
        rep.check("elliptic-interior", wi < tol, f"max |value-1| = {wi:.3e}")
        rep.check("elliptic-exterior", we < tol, f"max |value| = {we:.3e}")
        rep.check("elliptic-surface", ws < surf_tol,
                  f"max |value-1/2| = {ws:.3e} (tol {surf_tol:g})")

    rep.add_table("identities", rows)


def _task_poly_table(ctx, rep):
    cfg = ctx.task_cfg
    max_degree = cfg.get("max_degree", 4)
    parity = ctx.parity
    A = ctx.A
    rows = [["alpha", "degree", "terms", "polynomial"]]
    entries = []
    for alpha in enumerate_basis(A.n, max_degree):
        p = caloric_poly(A, alpha, parity)
        rows.append([" ".join(str(a) for a in alpha), sum(alpha),
                     len(p.terms), str(p)])
        entries.append(p.to_json_dict())
    rep.add_table("polynomials", rows)
    rep.extra_json["polynomials"] = entries
    count = len(entries)
    expected = math.comb(A.n + max_degree, A.n)
    rep.check("basis-count", count == expected,
              f"{count} polynomials (expected {expected})")


def _load_boundary_data(ctx, spec):
    kind = spec["kind"]
    mesh, A, parity = ctx.mesh, ctx.A, ctx.parity
    if kind == "caloric-poly":
        alpha = tuple(spec.get("alpha", [0] * A.n))
        if len(alpha) != A.n:
            raise ConfigInvalid("data/alpha length must equal operator n")
        return BoundaryData.from_field(mesh, parity,
                                       caloric_poly(A, alpha, parity),
                                       tag=f"caloric-poly {alpha}")
    if kind == "caloric-exponential":
        xi = np.asarray(spec.get("xi", [0.3] * A.n), dtype=float)
        if xi.shape[0] != A.n:
            raise ConfigInvalid("data/xi length must equal operator n")
        sign = +1 if parity == "v" else -1
        fld = CaloricExponentialField(A, xi, sign=sign)
        return BoundaryData.from_field(mesh, parity, fld,
                                       tag=f"caloric-exponential {xi.tolist()}")
    if kind == "abs-coordinate":
        idx = spec.get("index", 0)
        if idx >= A.n:
            raise ConfigInvalid("data/index out of range")
        return BoundaryData.from_function(
            mesh, parity, lambda p, t: np.abs(p[:, idx]),
            tag=f"abs-coordinate {idx}")
    path = spec.get("path")
    if path is None:
        raise ConfigInvalid("values-file data needs a path")
    full = os.path.join(ctx.config_dir, path)
    payload = _read_json(full, f"values file {full}", f"values file {full}")
    try:
        return BoundaryData.from_values(mesh, parity, payload, tag="values-file")
    except CalorixError as exc:
        raise ConfigInvalid(f"values file {full}: {exc}") from exc


def _task_solve(ctx, rep):
    cfg = ctx.task_cfg
    degree = cfg.get("degree", 6)
    rcond = cfg.get("rcond", 1e-12)
    spec = cfg.get("data", {"kind": "caloric-exponential"})
    data = _load_boundary_data(ctx, spec)

    approx = solve_dirichlet(ctx.mesh, ctx.A, ctx.parity, degree, data,
                             rcond=rcond)
    rows = [["degree", "residual", "rank", "cond", "columns"],
            [approx.degree, approx.residual, approx.rank, approx.cond,
             len(approx.alphas)]]
    rep.add_table("solve", rows)
    rep.extra_json["approximant"] = approx.to_json_dict()

    rep.check("residual-finite", math.isfinite(approx.residual),
              f"residual {approx.residual:.6e}")
    if spec["kind"] == "caloric-poly":
        if degree >= sum(data.exact.alpha):
            rep.check("reproduction", approx.residual < 1e-9,
                      f"residual {approx.residual:.3e} for in-space data (tol 1e-09)")
    if "max_residual" in cfg:
        rep.check("max-residual", approx.residual <= cfg["max_residual"],
                  f"residual {approx.residual:.6e} (tol {cfg['max_residual']:g})")


def _task_completeness(ctx, rep):
    cfg = ctx.task_cfg
    degrees = cfg.get("degrees", list(range(0, 13, 2)))
    rcond = cfg.get("rcond", 1e-12)
    spec = cfg.get("data", {"kind": "caloric-exponential"})
    data = _load_boundary_data(ctx, spec)

    try:
        report = completeness_study(ctx.mesh, ctx.A, ctx.parity, data, degrees,
                                    rcond=rcond)
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from exc

    rep.add_table("study", report.to_csv_rows())
    # summary.json is reproducible apart from the per-degree seconds, so the
    # shared assembly and factorization timings stay in the library report
    study = report.to_json_dict()
    del study["assembly_s"], study["factorization_s"]
    rep.extra_json["study"] = study

    slack = 1e-12
    mono = all(b <= a + slack for a, b in
               zip(report.residuals, report.residuals[1:]))
    rep.check("monotone-residuals", mono,
              "non-increasing over degrees " + repr(report.degrees))
    if report.exploratory:
        rep.check("exploratory-label", True,
                  "n=2 study: density theory is stated for higher dimensions; "
                  "results are exploratory")
    if "final_max_residual" in cfg:
        rep.check("final-residual",
                  report.residuals[-1] <= cfg["final_max_residual"],
                  f"residual({report.degrees[-1]}) = {report.residuals[-1]:.6e} "
                  f"(tol {cfg['final_max_residual']:g})")
    if cfg.get("cross_validate", False):
        m = ctx.config["mesh"]
        fine = build_mesh(ctx.cs, ctx.A, ctx.T, 2 * m["m_angular"],
                          2 * m["m_time"], 2 * m["m_radial"])
        cv = cross_validate(report.final, fine, ctx.A, data)
        rep.extra_json["cross_validation"] = cv.to_json_dict()
        rep.check("cross-consistent", not cv.flagged,
                  f"fine/coarse residual ratio {cv.ratio:.3f}")


# ---------------------------------------------------------------------------
# task registry

class TaskSpec(NamedTuple):
    """One CLI task: what runs (``run(ctx, rep)`` fills the run's
    ``Reporter``, which ``main`` writes out), its catalog text, and the
    schema of the keys its config block accepts besides ``name``."""

    run: Callable
    summary: str
    params: str
    schema: dict


TASKS = {
    "verify-kernels": TaskSpec(
        _task_verify_kernels,
        "finite-difference and quadrature checks of the kernel: both "
        "parabolic equations, the conormal kernel, unit mass, vanishing at "
        "non-positive times",
        "probes (int), tolerance (float)",
        {"probes": _COUNT, "tolerance": _POSITIVE}),
    "verify-jumps": TaskSpec(
        _task_verify_jumps,
        "two-sided boundary limits of the double layer and of the conormal "
        "derivative of the single layer against the predicted density jumps",
        "probes (int), kinds (non-empty subset of double, conormal_single), "
        "tolerance (float); planar sections only",
        {"probes": _COUNT,
         "kinds": {"type": "array", "minItems": 1, "uniqueItems": True,
                   "items": {"enum": ["double", "conormal_single"]}},
         "tolerance": _POSITIVE}),
    "verify-identities": TaskSpec(
        _task_verify_identities,
        "partition of unity by the double layer plus cap potential, "
        "interior/exterior representation of caloric fields, and (n=3) the "
        "elliptic boundary integral taking values 1, 1/2, 0",
        "interior_probes, exterior_probes, tolerance, surface_tolerance",
        {"interior_probes": _COUNT, "exterior_probes": _COUNT,
         "tolerance": _POSITIVE, "surface_tolerance": _POSITIVE}),
    "poly-table": TaskSpec(
        _task_poly_table,
        "exact polynomial solutions of both parabolic equations",
        "max_degree (int); parity from the operator block",
        {"max_degree": _DEGREE}),
    "solve": TaskSpec(
        _task_solve,
        "one weighted least-squares fit of Dirichlet boundary data by "
        "polynomial solutions",
        "degree, rcond, data (caloric-poly | caloric-exponential | "
        "abs-coordinate | values-file), max_residual (optional)",
        {"degree": _DEGREE, "rcond": _RCOND, "data": _DATA_SCHEMA,
         "max_residual": _POSITIVE}),
    "completeness": TaskSpec(
        _task_completeness,
        "residual decay of least-squares fits over increasing polynomial "
        "degree, with optional cross-validation on a finer mesh",
        "degrees (increasing ints), rcond, data, cross_validate (bool), "
        "final_max_residual (optional)",
        {"degrees": {"type": "array", "minItems": 1, "items": _DEGREE},
         "rcond": _RCOND, "data": _DATA_SCHEMA,
         "cross_validate": {"type": "boolean"},
         "final_max_residual": _POSITIVE}),
}

_CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["operator", "geometry", "mesh", "task"],
    "properties": {
        "operator": {
            "type": "object",
            "additionalProperties": False,
            "required": ["n", "matrix"],
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "matrix": _MATRIX_SCHEMA,
                "parity": {"enum": ["v", "w"]},
            },
        },
        "geometry": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind", "params", "T"],
            "properties": {
                "kind": {"enum": sorted(GEOMETRIES)},
                "params": {"type": "object"},
                "T": _POSITIVE,
            },
        },
        "mesh": {
            "type": "object",
            "additionalProperties": False,
            "required": ["m_angular", "m_time", "m_radial"],
            "properties": {
                "m_angular": {"type": "integer", "minimum": 4},
                "m_time": {"type": "integer", "minimum": 2},
                "m_radial": {"type": "integer", "minimum": 2},
            },
        },
        "task": {
            "type": "object",
            "required": ["name"],
            "properties": {"name": {"enum": sorted(TASKS)}},
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "directory": {"type": "string"},
                "formats": {"type": "array",
                            "items": {"enum": ["csv", "json"]}},
            },
        },
        "seed": {"type": "integer", "minimum": 0},
    },
}


def list_tasks():
    """Stable catalog of tasks: (name, what it verifies, parameters)."""
    return [(name, spec.summary, spec.params)
            for name, spec in sorted(TASKS.items())]


def _print_task_list():
    for name, summary, params in list_tasks():
        print(name)
        print(f"    {summary}")
        print(f"    parameters: {params}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="calorix",
        description="Verification suites and least-squares studies for an "
                    "anisotropic heat operator on finite cylinders.")
    parser.add_argument("task", help="task name from the config, or "
                                     "'list-tasks' for the catalog")
    parser.add_argument("--config", help="path to a JSON experiment config")
    parser.add_argument("--out", help="output directory (default: the "
                                      "config's output block, else 'out')")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: runs are serial")
    args = parser.parse_args(argv)

    if args.task == "list-tasks":
        _print_task_list()
        return 0

    try:
        if args.task not in TASKS:
            raise ConfigInvalid(
                f"unknown task {args.task!r}; run 'calorix list-tasks'")
        if args.config is None:
            raise ConfigInvalid("--config is required")
        config = _read_json(args.config, "cannot read config", "config is not valid JSON")
        # checked before the task name and output directory are read;
        # RunContext checks again, for callers that build it directly
        validate_config(config)
        if config["task"]["name"] != args.task:
            raise ConfigInvalid(
                f"config task {config['task']['name']!r} does not "
                f"match requested task {args.task!r}")

        config_dir = os.path.dirname(os.path.abspath(args.config))
        if args.out is not None:
            out_dir = args.out
        else:
            rel = config.get("output", {}).get("directory", "out")
            out_dir = os.path.join(config_dir, rel)

        ctx = RunContext(config, config_dir, out_dir, args.threads)
        rep = Reporter(ctx, args.task)
        TASKS[args.task].run(ctx, rep)
        rep.finish()
    except TaskFailed as exc:
        print(f"task failed: {exc}", file=sys.stderr)
        return 1
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CalorixError as exc:
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
