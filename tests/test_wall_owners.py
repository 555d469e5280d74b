"""``geometry`` owns the measurement of a target against the wall:
``CylinderMesh.locate`` returns its kind, region, radial gap and wall
distance at once, so no other module under src/calorix calls
``distance_to_wall``, and no module names a second wall measurement."""
import re

from owners import SRC, hits

WALL_DISTANCE = re.compile(r"\bdistance_to_wall\(")
SECOND_MEASUREMENT = re.compile(r"\bwall_frame\b|\bWallFrame\b")


def test_patterns_catch_each_measurement():
    assert WALL_DISTANCE.search("d = mesh.distance_to_wall(x)")
    assert WALL_DISTANCE.search("    def distance_to_wall(self, x):")
    assert not WALL_DISTANCE.search("loc.distance < _NEAR_FACTOR * spacing")
    assert all(SECOND_MEASUREMENT.search(line) for line in
               ["frame = mesh.wall_frame((x, t))", "class WallFrame:"])
    assert not SECOND_MEASUREMENT.search("loc = mesh.locate((x, t))")
    owner = (SRC / "geometry.py").read_text()
    assert len(WALL_DISTANCE.findall(owner)) == 2  # the method and its one call, in locate


def test_only_geometry_measures_the_wall():
    paths = sorted(SRC.rglob("*.py"))
    assert [hit for path in paths if path.name != "geometry.py"
            for hit in hits(path, WALL_DISTANCE)] == []
    assert [hit for path in paths for hit in hits(path, SECOND_MEASUREMENT)] == []
