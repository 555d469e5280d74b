"""The package supports numpy>=1.24 (pyproject.toml): no module may use a
name that NumPy added in 2.0."""
import pathlib
import re

import calorix

NUMPY2_ONLY = re.compile(r"\.mT\b|\bnp\.concat\(|\bnp\.permute_dims\b|\bnp\.unstack\b"
                         r"|\bnp\.astype\(|\blinalg\.matrix_transpose\b|\blinalg\.vecdot\b")


def test_pattern_catches_each_numpy2_name():
    lines = ["a.mT @ b", "np.concat([a, b])", "np.permute_dims(a, (1, 0))",
             "np.unstack(a)", "np.astype(a, float)", "np.linalg.matrix_transpose(a)",
             "np.linalg.vecdot(a, b)"]
    assert all(NUMPY2_ONLY.search(line) for line in lines)
    assert not NUMPY2_ONLY.search("np.concatenate([a.T, b.astype(float)])")


def test_src_uses_no_numpy2_only_name():
    root = pathlib.Path(calorix.__file__).parent
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in sorted(root.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if NUMPY2_ONLY.search(line)]
    assert hits == []
