"""Line scans of the calorix sources, shared by the owner tests."""
import pathlib

import calorix

SRC = pathlib.Path(calorix.__file__).parent


def hits(path, pattern):
    """(file name, line number, stripped line) of each line of ``path`` that ``pattern`` matches."""
    return [(path.name, number, line.strip())
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
