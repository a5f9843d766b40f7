import os

import numpy as np
import pytest

import glassey_lab as gl

GOLDENS_PATH = os.path.join(os.path.dirname(__file__), "goldens.txt")


def load_goldens():
    out = {}
    with open(GOLDENS_PATH) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, value, resolution, tol = [tok.strip() for tok in line.split(",")]
            out[name] = (float(value), int(resolution), float(tol))
    return out


@pytest.fixture(scope="session")
def goldens():
    return load_goldens()


@pytest.fixture(scope="session")
def grid12():
    return gl.RadialGrid(r_max=12.0, num_cells=2400)


@pytest.fixture(scope="session")
def gaussian12(grid12):
    return gl.RadialField(grid12, np.exp(-(grid12.nodes**2)))
