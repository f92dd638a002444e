"""Shared fixtures: a small twin-pair world sized for fast unit tests.

The acceptance suite builds its own fixtures at the documented default
resolutions; everything here trades grid density for speed while keeping the
same structure (twin objects, per-object codebooks, ambiguity tables).
"""

import json

import numpy as np
import pytest

from viewrank import ambiguity, so3
from viewrank.codebook import build_codebook
from viewrank.synthworld import make_ambiguous_pair


@pytest.fixture(scope="session")
def pair():
    return make_ambiguous_pair(0)


@pytest.fixture(scope="session")
def codebook_grid():
    return so3.build_view_grid(384, 8)


@pytest.fixture(scope="session")
def codebooks(pair, codebook_grid):
    a, b = pair
    return [build_codebook(a, codebook_grid), build_codebook(b, codebook_grid)]


@pytest.fixture(scope="session")
def initial_step(codebook_grid):
    """A first descent step of twice the codebook's direction spacing."""
    return 2.0 * codebook_grid.direction_spacing()


@pytest.fixture(scope="session")
def coarse_grid():
    return so3.build_view_grid(96, 1)


@pytest.fixture(scope="session")
def coarse_grid_small():
    return so3.build_view_grid(24, 1)


@pytest.fixture(scope="session")
def tables(pair, codebooks, coarse_grid):
    a, b = pair
    return {
        "A": ambiguity.rank_object(a, [b], [codebooks[1]], coarse_grid, 16),
        "B": ambiguity.rank_object(b, [a], [codebooks[0]], coarse_grid, 16),
    }


@pytest.fixture(scope="session")
def hidden_rotation(pair):
    """A rotation from which no differing blob is visible (views -patch_center)."""
    a, _ = pair
    center = np.asarray(a.meta["patch_center"], dtype=float)
    return so3.look_at(-center)


@pytest.fixture(scope="session")
def visible_rotation(pair):
    """A rotation viewing the patch head-on."""
    a, _ = pair
    center = np.asarray(a.meta["patch_center"], dtype=float)
    return so3.look_at(center)


@pytest.fixture(scope="session")
def assert_table_json():
    """Check a saved ambiguity table, read back with ``json.load``, against
    the in-memory table: every row and column bit for bit."""

    def check(path, table):
        with open(path) as f:
            data = json.load(f)
        rows = data["pairs"]
        assert data["object_class"] == table.object_class
        assert data["grid_meta"] == table.grid_meta
        assert np.array_equal(data["ambiguity"], table.ambiguity)
        assert np.array_equal([p["similarity"] for p in rows], table.raw_similarity)
        assert np.array_equal(np.reshape([p["r_a"] for p in rows], (-1, 4)), table.r_a_quats)
        assert np.array_equal(np.reshape([p["r_b"] for p in rows], (-1, 4)), table.r_b_quats)
        assert [p["matched_class"] for p in rows] == table.matched_class.tolist()

    return check
