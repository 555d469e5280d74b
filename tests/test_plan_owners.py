"""``potentials._plan`` is the one choice of a target's rules: in
``potentials`` only it locates a target and reads the near-wall factor, the
boundary spacing and the largest eigenvalue of the Gauss-Hermite clearance."""
import ast
import re

from owners import SRC, hits

PLAN_INPUTS = re.compile(r"\b_NEAR_FACTOR\b|\bboundary_spacing\b|\beig_max\b|\bmesh\.locate\(")
POTENTIALS = SRC / "potentials.py"


def _plan_lines():
    plans = [node for node in ast.parse(POTENTIALS.read_text()).body
             if isinstance(node, ast.FunctionDef) and node.name == "_plan"]
    assert len(plans) == 1, "potentials defines one _plan"
    return range(plans[0].lineno, plans[0].end_lineno + 1)


def test_pattern_catches_each_plan_input():
    assert all(PLAN_INPUTS.search(line) for line in [
        "loc = mesh.locate((x, t))", "near = loc.distance < _NEAR_FACTOR * mesh.boundary_spacing",
        "ok = 12.0 * math.sqrt(w * A.eig_max) <= loc.distance"])
    assert not any(PLAN_INPUTS.search(line) for line in [
        "plan = _plan(mesh, A, x, t, star)", "a target's ``Location`` from ``CylinderMesh.locate``",
        "_NEAR_FACTOR_2 = 4.0", "graded = _near_boundary_rule(mesh, x, plan.depth)"])
    inside = [line for _, number, line in hits(POTENTIALS, PLAN_INPUTS) if number in _plan_lines()]
    assert {hit.group() for line in inside for hit in PLAN_INPUTS.finditer(line)} == {
        "_NEAR_FACTOR", "boundary_spacing", "eig_max", "mesh.locate("}


def test_only_plan_chooses_rules():
    plan = _plan_lines()
    outside = [hit for hit in hits(POTENTIALS, PLAN_INPUTS)
               if hit[1] not in plan and not hit[2].startswith("_NEAR_FACTOR = ")]
    assert outside == []
    assert len(re.findall(r"\bmesh\.locate\(", POTENTIALS.read_text())) == 1
