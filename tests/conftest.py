import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from deplin import from_head_vector

FIG1_HV = "2 3 0 3 2 7 5 4 3"
FIG2_HV = "3 3 0 5 3 7 5 10 10 7"
TREEBANK_LINES = (
    "0 1 2 6 4 1 6 6 6",
    "0 1 2 5 1 7 1 7 10 7 10",
    "2 0 2 2 4 4 8 4 8 9",
)


def scale_tree(shape, n):
    """A rooted path, star or random recursive tree on n vertices."""
    if shape == "path":
        return from_head_vector([0] + list(range(1, n)))
    if shape == "star":
        return from_head_vector([0] + [1] * (n - 1))
    rng = random.Random(n)
    return from_head_vector([0] + [rng.randint(1, i) for i in range(1, n)])


@pytest.fixture
def fig1():
    return from_head_vector(FIG1_HV)


@pytest.fixture
def fig2():
    return from_head_vector(FIG2_HV)


@pytest.fixture
def treebank_file(tmp_path):
    p = tmp_path / "sample.hv"
    p.write_text("\n".join(TREEBANK_LINES) + "\n", encoding="utf-8")
    return p
