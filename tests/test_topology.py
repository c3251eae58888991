"""Digital topology: simple points, components, holes, and the guard."""

import numpy as np
import pytest

import pwflow as pw
from pwflow.topology import (
    count_components,
    count_holes,
    euler_characteristic,
    is_simple_point,
    label_components,
)

from oracles import flood_fill_label_components


def test_isolated_pixel_is_not_simple():
    fg = np.zeros((5, 5), bool)
    # flipping a pixel with empty neighbourhood creates/destroys a component
    assert not is_simple_point(fg, 2, 2)


def test_interior_pixel_of_solid_block_is_not_simple():
    fg = np.ones((5, 5), bool)
    # flipping it would open a hole
    assert not is_simple_point(fg, 2, 2)


def test_straight_edge_pixel_is_simple():
    fg = np.zeros((5, 5), bool)
    fg[3:, :] = True
    assert is_simple_point(fg, 3, 2)


def test_bridge_pixel_is_not_simple():
    fg = np.zeros((3, 5), bool)
    fg[1, 0] = fg[1, 1] = True
    fg[1, 3] = fg[1, 4] = True
    fg[1, 2] = True  # the bridge
    assert not is_simple_point(fg, 1, 2)


def test_diagonal_corner_pair_is_not_simple():
    fg = np.zeros((3, 3), bool)
    fg[0, 0] = fg[2, 2] = True
    assert not is_simple_point(fg, 1, 1)


def test_component_and_hole_counting():
    mask = np.zeros((9, 9), bool)
    mask[1:4, 1:4] = True
    mask[5:8, 5:8] = True
    assert count_components(mask, 8) == 2
    assert count_holes(mask) == 0
    ring = np.zeros((9, 9), bool)
    ring[2:7, 2:7] = True
    ring[4, 4] = False
    assert count_components(ring, 8) == 1
    assert count_holes(ring) == 1
    assert euler_characteristic(ring) == 0


@pytest.mark.parametrize("connectivity", [4, 8])
def test_label_components_matches_flood_fill_oracle(connectivity):
    rng = np.random.default_rng(connectivity)
    for _ in range(150):
        h, w = rng.integers(1, 25, 2)
        mask = rng.random((h, w)) < rng.uniform(0.05, 0.95)
        labels, count = label_components(mask, connectivity)
        want_labels, want_count = flood_fill_label_components(mask, connectivity)
        assert count == want_count
        assert labels.dtype == np.int32
        assert np.array_equal(labels, want_labels)


def test_label_components_diagonal_contact_depends_on_connectivity():
    mask = np.array(
        [[1, 1, 0, 0, 1],
         [0, 0, 1, 0, 1],
         [1, 0, 0, 1, 0]], dtype=bool,
    )
    labels8, count8 = label_components(mask, 8)
    assert count8 == 2
    assert labels8[0, 0] == labels8[1, 2] == labels8[2, 3] == labels8[0, 4] == 1
    assert labels8[2, 0] == 2
    _, count4 = label_components(mask, 4)
    assert count4 == 5
    with pytest.raises(ValueError):
        label_components(mask, 6)


def test_guard_no_sign_changes_returns_field_unchanged():
    yy, xx = np.mgrid[0:16, 0:16]
    psi = np.sqrt((xx - 8.0) ** 2 + (yy - 8.0) ** 2) - 4.0
    out = pw.topology_guard(psi, psi + 0.1)
    assert np.array_equal(out, psi + 0.1)


def test_guard_blocks_merge_of_growing_discs():
    yy, xx = np.mgrid[0:18, 0:30]
    old = np.minimum(
        np.sqrt((xx - 8.0) ** 2 + (yy - 9.0) ** 2) - 4.0,
        np.sqrt((xx - 21.0) ** 2 + (yy - 9.0) ** 2) - 4.0,
    )
    # naive update grows both discs until they overlap
    new = old - 3.0
    assert count_components(old <= 0) == 2
    assert count_components(new <= 0) == 1
    guarded = pw.topology_guard(old, new)
    assert count_components(guarded <= 0) == 2
    assert count_holes(guarded <= 0) == count_holes(old <= 0)


def test_guard_allows_uniform_erosion():
    yy, xx = np.mgrid[0:24, 0:24]
    old = np.sqrt((xx - 12.0) ** 2 + (yy - 12.0) ** 2) - 6.0
    new = old + 1.0  # erode by one pixel everywhere
    guarded = pw.topology_guard(old, new)
    assert np.array_equal(guarded, new)  # every changed point is simple
    assert count_components(guarded <= 0) == 1


def test_guard_preserves_component_and_hole_counts_randomly():
    rng = np.random.default_rng(33)
    for _ in range(15):
        old = rng.standard_normal((14, 14))
        new = old + rng.standard_normal((14, 14))
        guarded = pw.topology_guard(old, new)
        assert count_components(guarded <= 0) == count_components(old <= 0)
        assert count_holes(guarded <= 0) == count_holes(old <= 0)


def test_guard_clamps_to_small_old_sign_value():
    old = np.full((3, 3), 1.0)
    old[1, 1] = -1.0  # single-pixel component
    new = old.copy()
    new[1, 1] = 2.0  # try to delete it
    guarded = pw.topology_guard(old, new)
    assert guarded[1, 1] == -1e-4
    assert np.array_equal(guarded <= 0, old <= 0)
