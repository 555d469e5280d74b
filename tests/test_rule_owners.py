"""``quadrature`` owns every rule and the frame of every rule: no other
module under src/calorix calls a Gauss rule generator or builds a frame with
a cross product."""
import re

from owners import SRC, hits

RULE_BUILDERS = re.compile(r"\bleggauss\b|\bhermgauss\b|\bnp\.cross\(")


def test_pattern_catches_each_rule_builder():
    lines = ["x, w = np.polynomial.legendre.leggauss(m)",
             "u, w = np.polynomial.hermite.hermgauss(m)", "e2 = np.cross(u0, e1)"]
    assert all(RULE_BUILDERS.search(line) for line in lines)
    assert not any(RULE_BUILDERS.search(line) for line in
                   ["x, w = gauss_legendre(m, 0.0, 1.0)", "u, w = gauss_hermite(m)",
                    "# the offset crosses the wall"])
    owner = (SRC / "quadrature.py").read_text()
    assert {hit.group() for hit in RULE_BUILDERS.finditer(owner)} == {
        "leggauss", "hermgauss", "np.cross("}


def test_only_quadrature_builds_rules_and_frames():
    assert [hit for path in sorted(SRC.rglob("*.py")) if path.name != "quadrature.py"
            for hit in hits(path, RULE_BUILDERS)] == []
