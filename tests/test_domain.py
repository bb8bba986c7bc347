import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavext.domain import (DomainError, DomainMask, _any_roll, ball, disk,
                           interval, masked_grid, plunge_row_set,
                           scaling_boundary_set, wavelet_boundary_set,
                           whole_box)
from wavext.filters import filter_bank

from support import (brute_force_K, reference_grid,
                     wavelet_boundary_set_intervals)


def test_interval_point_count():
    grid = masked_grid(interval(0.0, 0.5), 16, 2)
    assert grid.M == 17
    np.testing.assert_allclose(grid.points()[:, 0], np.arange(17) / 32)


@pytest.mark.parametrize("mask, N, q", [
    (interval(0.13, 0.71), 256, 2),
    (disk(0.45, 0.55, 0.3), (16, 32), (4, 2)),
    (ball(0.5, 0.5, 0.5, 0.4), 8, 2),
])
def test_grid_matches_meshgrid_oracle(mask, N, q):
    """inside, inside_bool and points() have the bits of the meshgrid and
    unravel_index forms (``support.reference_grid``) on an interval, on a
    disk whose axes differ in N and q, and on a ball; a custom predicate
    receives the full grid as an (npoints, d) float array, the oracle's."""
    grid = masked_grid(mask, N, q)
    pts, inside_bool, inside, inside_pts = reference_grid(mask,
                                                          grid.grid_shape)
    assert np.array_equal(grid.inside_bool, inside_bool)
    assert np.array_equal(grid.inside, inside)
    got = grid.points()
    assert got.shape == inside_pts.shape and got.dtype == float
    assert got.view(np.int64).tolist() == inside_pts.view(np.int64).tolist()
    seen = []

    def predicate(p):
        seen.append(p.copy())
        return mask.indicator(p)

    custom = masked_grid(DomainMask(mask.dimension, predicate), N, q)
    assert np.array_equal(custom.inside, inside)
    (p,) = seen
    assert p.dtype == float and p.shape == pts.shape
    assert p.view(np.int64).tolist() == pts.view(np.int64).tolist()


def test_whole_box_count():
    grid = masked_grid(whole_box(2), (8, 8), (2, 2))
    assert grid.M == 16 * 16


def test_disk_area_ratio():
    grid = masked_grid(disk(0.5, 0.5, 0.35), (64, 64), (2, 2))
    ratio = grid.M / (128 * 128)
    assert abs(ratio - np.pi * 0.35 ** 2) / (np.pi * 0.35 ** 2) < 0.05


def test_oversampling_guard():
    with pytest.raises(DomainError):
        masked_grid(interval(0.0, 0.1), 64, 2)   # 13 points for 64 dof


def test_empty_domain_is_named():
    """A domain that holds no grid point raises a DomainError that names
    it empty, not one about the oversampling."""
    for mask, N in ((disk(2, 2, 0.1), (16, 16)), (interval(0.41, 0.42), 8)):
        with pytest.raises(DomainError, match="empty domain"):
            masked_grid(mask, N, 2)


def test_invalid_grid_parameters():
    with pytest.raises(DomainError):
        masked_grid(interval(0.0, 0.5), 48, 2)   # not a power of two
    with pytest.raises(DomainError):
        masked_grid(interval(0.0, 0.5), 64, 1)   # q < 2


def test_boundary_touch_warning():
    with pytest.warns(UserWarning):
        interval(0.0, 1.0)


def test_bad_interval():
    with pytest.raises(DomainError):
        interval(0.5, 0.2)
    with pytest.raises(DomainError):
        disk(0.5, 0.5, -1.0)


@pytest.mark.parametrize("shifts", [[0], [3, -2, 0], [-5, -1], [1, 4],
                                    [-7, 9], [11, -13, 2], [-20], [17]])
def test_any_roll_matches_rolls(shifts):
    """The OR of np.rolls along each axis of a 2-D mask, for shifts of both
    signs, of one sign only, and longer than the axis (5 and 6 entries)."""
    a = np.random.default_rng(1).random((5, 6)) < 0.3
    for axis in (0, 1):
        ref = np.zeros_like(a)
        for s in shifts:
            ref |= np.roll(a, s, axis)
        out = _any_roll(a, shifts, axis)
        assert out.dtype == bool and np.array_equal(out, ref), (shifts, axis)
    assert not _any_roll(a, [], 0).any()


def test_K_empty_on_box():
    grid = masked_grid(whole_box(1), 32, 2)
    K, _ = scaling_boundary_set(grid, filter_bank("db2"))
    assert K.size == 0


def test_K_matches_brute_force_1d():
    bank = filter_bank("db2")
    grid = masked_grid(interval(0.0, 0.5), 64, 2)
    K, _ = scaling_boundary_set(grid, bank)
    oracle = brute_force_K(grid, bank)
    np.testing.assert_array_equal(K, oracle)
    assert K.size == 4      # frozen from the brute-force oracle


def test_K_matches_brute_force_2d():
    bank = filter_bank("cdf33")
    grid = masked_grid(disk(0.5, 0.5, 0.35), (16, 16), (2, 2))
    K, _ = scaling_boundary_set(grid, bank)
    oracle = brute_force_K(grid, bank)
    np.testing.assert_array_equal(K, oracle)


def test_K_doubling_2d():
    bank = filter_bank("cdf33")
    counts = []
    for n in (32, 64, 128):
        grid = masked_grid(disk(0.5, 0.5, 0.35), (n, n), (2, 2))
        K, _ = scaling_boundary_set(grid, bank)
        counts.append(K.size)
    for a, b in zip(counts, counts[1:]):
        assert 1.5 < b / a < 2.5, counts


def test_L_empty_when_K_empty():
    grid = masked_grid(whole_box(1), 32, 2)
    _, kflags = scaling_boundary_set(grid, filter_bank("db2"))
    L, _ = wavelet_boundary_set(kflags, filter_bank("db2"), grid.N)
    assert L.size == 0


def test_L_paths_agree():
    for fam in ("db2", "cdf33", "cdf42"):
        bank = filter_bank(fam)
        grid = masked_grid(interval(0.1, 0.7), 128, 2)
        _, kflags = scaling_boundary_set(grid, bank)
        L1, _ = wavelet_boundary_set(kflags, bank, grid.N)
        L2, _ = wavelet_boundary_set_intervals(kflags, bank, grid.N)
        np.testing.assert_array_equal(L1, L2), fam


def test_L_haar_aligned():
    bank = filter_bank("db1")
    grid = masked_grid(interval(0.0, 0.5), 64, 2)
    _, kflags = scaling_boundary_set(grid, bank)
    L, lflags = wavelet_boundary_set(kflags, bank, grid.N)
    # at most 2 straddling wavelets per scale (plus coarse slots)
    flags = lflags.ravel()
    for l in range(1, 6):
        assert flags[2 ** l: 2 ** (l + 1)].sum() <= 2 + 2


def test_L_growth_JK():
    bank = filter_bank("db2")
    for n in (64, 256, 1024):
        grid = masked_grid(interval(0.0, 0.5), n, 2)
        K, kflags = scaling_boundary_set(grid, bank)
        L, _ = wavelet_boundary_set(kflags, bank, grid.N)
        J = int(np.log2(n))
        assert L.size <= 3 * J * K.size


def test_Mrows_empty_on_box():
    grid = masked_grid(whole_box(1), 32, 2)
    _, kflags = scaling_boundary_set(grid, filter_bank("db2"))
    assert plunge_row_set(kflags, filter_bank("db2"), grid).size == 0


def test_Mrows_constant_1d():
    bank = filter_bank("cdf33")
    sizes = []
    for n in (64, 128, 256, 512):
        grid = masked_grid(interval(0.0, 0.5), n, 2)
        K, kflags = scaling_boundary_set(grid, bank)
        sizes.append(plunge_row_set(kflags, bank, grid).size / max(K.size, 1))
    assert max(sizes) <= 2 * min(sizes)


def test_determinism():
    bank = filter_bank("cdf33")
    grid = masked_grid(disk(0.5, 0.5, 0.3), (32, 32), (2, 2))
    a = scaling_boundary_set(grid, bank)
    b = scaling_boundary_set(grid, bank)
    np.testing.assert_array_equal(a[0], b[0])


def test_ball_volume():
    grid = masked_grid(ball(0.5, 0.5, 0.5, 0.4), (8, 8, 8), (2, 2, 2))
    ratio = grid.M / 16 ** 3
    vol = 4 / 3 * np.pi * 0.4 ** 3
    assert abs(ratio - vol) / vol < 0.1


@given(a=st.floats(0.01, 0.3), width=st.floats(0.35, 0.65),
       fam=st.sampled_from(["db2", "cdf33"]))
@settings(max_examples=20, deadline=None)
def test_K_oracle_property(a, width, fam):
    bank = filter_bank(fam)
    grid = masked_grid(interval(a, min(a + width, 0.99)), 16, 4)
    K, _ = scaling_boundary_set(grid, bank)
    np.testing.assert_array_equal(K, brute_force_K(grid, bank))
