"""Span tracer for the traced pass, installed from outside the package.

``Tracer.install`` replaces every public function of the layer modules, plus
``CaloricPolynomial.evaluate`` and ``DensityField.from_function``, with a
wrapper that records a span (name, layer, start, end, parent, info).  The
CLI imports names with ``from .x import ...``, so each function is replaced
in every ``calorix.*`` namespace that holds it, not only where it is defined.
``cli.main``, ``RunContext.__init__`` and ``RunContext.parallel_map`` get
spans of the ``cli`` layer; work that ``parallel_map`` hands to pool threads
is parented to the ``parallel_map`` span.  ``restore`` puts the originals
back.

Self time of a span is its duration minus the part its children cover.
Where spans of several threads run at once, each instant is split equally
between them, so the self times of all spans add up to the wall time of the
root span.
"""

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("core", "geometry", "quadrature", "polynomials", "potentials", "solver")

NAME, LAYER, START, END, PARENT, INFO = range(6)


def _kernel_points(args, kwargs, out):
    z = np.asarray(args[1] if len(args) > 1 else kwargs["z"])
    return z.size // z.shape[-1] if z.ndim else 1


def _term_evals(args, kwargs, out):
    poly, points = args[0], args[1]
    if isinstance(out, float):  # SpaceTimePoint: the nested call is counted
        return 0
    return len(poly.terms) * np.atleast_2d(np.asarray(points)).shape[0]


def _design_shape(args, kwargs, out):
    return out.matrix.shape


def _rank_and_columns(args, kwargs, out):
    return out.rank, len(out.alphas)


def _density_id(args, kwargs, out):
    return id(args[2])


INFO_HOOKS = {
    "core.fundamental_solution": _kernel_points,
    "polynomials.evaluate": _term_evals,
    "solver.assemble_system": _design_shape,
    "solver.solve_dirichlet": _rank_and_columns,
    "potentials.jump_probe": _density_id,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, layer, fn):
        spans, stack_of, clock = self.spans, self._stack, time.perf_counter
        hook = INFO_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            rec = [name, layer, clock(), None, stack[-1] if stack else None, None]
            spans.append(rec)
            stack.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = clock()
            if hook is not None:
                rec[INFO] = hook(args, kwargs, out)
            return out

        return traced

    def _wrap_parallel_map(self, fn):
        stack_of = self._stack

        @functools.wraps(fn)
        def parallel_map(ctx, work, items):
            parent = stack_of()[-1]

            def adopted(item):
                stack = stack_of()
                saved = stack[:]
                stack[:] = [parent]
                try:
                    return work(item)
                finally:
                    stack[:] = saved

            return fn(ctx, adopted, items)

        return self.wrap("cli.parallel_map", "cli", parallel_map)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        import calorix.cli as cli
        import calorix.polynomials as polynomials
        import calorix.potentials as potentials

        namespaces = [m for k, m in sorted(sys.modules.items())
                      if k == "calorix" or k.startswith("calorix.")]
        for layer in LAYERS:
            module = sys.modules[f"calorix.{layer}"]
            for attr, obj in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                traced = self.wrap(f"{layer}.{attr}", layer, obj)
                for ns in namespaces:
                    if vars(ns).get(attr) is obj:
                        self._patch(ns, attr, traced)
        poly = polynomials.CaloricPolynomial
        self._patch(poly, "evaluate",
                    self.wrap("polynomials.evaluate", "polynomials", poly.evaluate))
        dens = potentials.DensityField
        self._patch(dens, "from_function", classmethod(self.wrap(
            "potentials.DensityField.from_function", "potentials",
            vars(dens)["from_function"].__func__)))
        ctx = cli.RunContext
        self._patch(ctx, "__init__",
                    self.wrap("cli.run_context", "cli", ctx.__init__))
        self._patch(ctx, "parallel_map", self._wrap_parallel_map(ctx.parallel_map))
        self._patch(cli, "main", self.wrap("cli.main", "cli", cli.main))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Self time of every span, keyed by id(span); concurrent self time is
    split equally between the spans that share it."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[id(s[PARENT])].append((s[START], s[END]))
    events = []
    for s in spans:
        cursor = s[START]
        for a, b in sorted(children[id(s)]):
            if a > cursor:
                events += [(cursor, 1, id(s)), (a, -1, id(s))]
            cursor = max(cursor, b)
        if s[END] > cursor:
            events += [(cursor, 1, id(s)), (s[END], -1, id(s))]
    events.sort()
    out = defaultdict(float)
    active = defaultdict(int)
    last = None
    for t, delta, key in events:
        if active and last is not None and t > last:
            share = (t - last) / len(active)
            for k in active:
                out[k] += share
        last = t
        active[key] += delta
        if not active[key]:
            del active[key]
    return out


def _group(name):
    """Per-function self-time group of a span name, or None."""
    if name in ("potentials.double_layer", "potentials.single_layer",
                "potentials.double_layer_star", "potentials.single_layer_star"):
        return "potentials.lateral"
    if name in ("potentials.cap_potential", "potentials.cap_potential_star"):
        return "potentials.cap"
    return name


GROUPS = (
    "polynomials.caloric_poly", "polynomials.evaluate",
    "solver.assemble_system", "solver.solve_dirichlet", "solver.evaluate_solution",
    "potentials.jump_probe", "potentials.conormal_derivative_single_layer",
    "potentials.lateral", "potentials.cap", "potentials.partition_identity",
    "potentials.stokes_check", "potentials.elliptic_gauss_identity",
    "core.fundamental_solution",
)


def layer_metrics(spans, threads):
    """Per-layer metrics of one traced CLI run."""
    selfs = self_times(spans)
    roots = [s for s in spans if s[PARENT] is None]
    wall = sum(s[END] - s[START] for s in roots)
    by_layer = defaultdict(float)
    by_group = defaultdict(float)
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    for s in spans:
        t = selfs.get(id(s), 0.0)
        by_layer[s[LAYER]] += t
        by_group[_group(s[NAME])] += t
        calls[s[NAME]] += 1
        calls[s[LAYER]] += 1
        inclusive[s[NAME]] += s[END] - s[START]

    def infos(name):
        return [s[INFO] for s in spans if s[NAME] == name]

    pool_wall = inclusive["cli.parallel_map"]
    pool_busy = sum(s[END] - s[START] for s in spans
                    if s[PARENT] is not None and s[PARENT][NAME] == "cli.parallel_map")
    draws = sum(1 for s in spans if s[NAME] == "potentials.DensityField.from_function"
                and s[PARENT] is not None and s[PARENT][NAME] == "cli.main")
    jobs = len(set(infos("potentials.jump_probe")))
    solves = infos("solver.solve_dirichlet")
    designs = infos("solver.assemble_system")

    m = {
        "trace.wall_s": wall,
        "trace.accounted_frac": sum(by_layer.values()) / wall,
        "cli.run_context_s": inclusive["cli.run_context"],
        "cli.density_accept_ratio": jobs / draws if draws else 0.0,
        "cli.pool_busy_frac": pool_busy / (pool_wall * threads) if pool_wall else 0.0,
        "geometry.build_mesh_s": inclusive["geometry.build_mesh"],
        "quadrature.calls": calls["quadrature"],
        "polynomials.caloric_poly.calls": calls["polynomials.caloric_poly"],
        "polynomials.evaluate.calls": calls["polynomials.evaluate"],
        "polynomials.term_evals": sum(infos("polynomials.evaluate")),
        "solver.rank_ratio": min((r / c for r, c in solves), default=0.0),
        "solver.design_mb": max((r * c * 8 / 1e6 for r, c in designs), default=0.0),
        "core.kernel_points": sum(infos("core.fundamental_solution")),
    }
    for layer in ("cli",) + LAYERS:
        m[f"{layer}.self_s"] = by_layer[layer]
    for group in GROUPS:
        m[f"{group}.self_s"] = by_group[group]
    return m
