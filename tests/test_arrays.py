import numpy as np
import pytest

from fdiab.arrays import (ArrayGeometry, aperture_diameter, element_positions,
                          near_field_radius, partition_subarrays, steering_matrix,
                          upa_steering)
from fdiab.errors import ConfigurationError, DomainError


def test_broadside_steering_is_uniform():
    geom = ArrayGeometry(4, 4)
    a = upa_steering(geom, 0.0, 0.0)
    assert np.allclose(a, 0.25)


def test_two_element_steering_hand_value():
    # 1x2 UPA at half-wavelength spacing, azimuth pi/2, elevation 0:
    # entries (1/sqrt(2)) * {1, e^{j*pi*sin(az)*cos(el)}} = (1/sqrt(2)) * {1, -1}
    geom = ArrayGeometry(1, 2)
    a = upa_steering(geom, np.pi / 2, 0.0)
    expected = np.array([1.0, np.exp(1j * np.pi)]) / np.sqrt(2.0)
    assert np.allclose(a, expected, atol=1e-12)


def test_steering_unit_norm_over_angle_grid():
    geom = ArrayGeometry(2, 2, spacing=0.5)
    az = np.linspace(-np.pi, np.pi, 17)
    el = np.linspace(-np.pi / 2, np.pi / 2, 9)
    azg, elg = np.meshgrid(az, el)
    mat = steering_matrix(geom, azg.ravel(), elg.ravel())
    assert np.allclose(np.linalg.norm(mat, axis=0), 1.0, atol=1e-12)


def test_steering_broadside_constant_phase():
    geom = ArrayGeometry(8, 8)
    a = upa_steering(geom, 0.0, 0.0)
    assert np.allclose(np.angle(a), np.angle(a[0]), atol=1e-12)


@pytest.mark.parametrize("az,el", [(3.2, 0.0), (-3.2, 0.0), (0.0, 1.6), (0.0, -1.6)])
def test_steering_angle_domain(az, el):
    with pytest.raises(DomainError):
        upa_steering(ArrayGeometry(2, 2), az, el)


def test_partition_contiguous_blocks():
    part = partition_subarrays(256, 4)
    assert [list(b)[:1] + list(b)[-1:] for b in part] == \
        [[0, 63], [64, 127], [128, 191], [192, 255]]
    # block sizes all 64, one 4x16 panel per user on a 16x16 array
    assert all(len(b) == 64 for b in part)


def test_partition_degenerate_single_block():
    part = partition_subarrays(64, 1)
    assert list(part[0]) == list(range(64))


def test_partition_property_random_sizes():
    rng = np.random.default_rng(7)
    for _ in range(50):
        u = int(rng.integers(1, 9))
        n = u * int(rng.integers(1, 33))
        part = partition_subarrays(n, u)
        covered = sorted(i for b in part for i in b)
        assert covered == list(range(n))


def test_partition_divisibility_error():
    with pytest.raises(ConfigurationError, match="subarray-divisibility"):
        partition_subarrays(10, 3)


def test_element_positions_pitch_and_diagonal():
    geom = ArrayGeometry(2, 2, spacing=0.5)
    pos = element_positions(geom, wavelength=0.005)
    # row-major: (0,0), (0,1), (1,0), (1,1) -> pitch 2.5 mm
    assert np.allclose(pos[1] - pos[0], [0.0025, 0.0, 0.0])
    assert np.allclose(pos[2] - pos[0], [0.0, 0.0025, 0.0])
    assert np.isclose(aperture_diameter(geom, 0.005), 0.0025 * np.sqrt(2.0))


def test_aperture_diameter_16x16():
    geom = ArrayGeometry(16, 16, spacing=0.5)
    lam = 3e8 / 28e9
    assert np.isclose(aperture_diameter(geom, lam), 15 * 0.5 * lam * np.sqrt(2.0))


def test_near_field_radius_covers_default_separation():
    # 2 D^2 / lambda for the 16x16 panel at 28 GHz is 225 wavelengths, so the
    # co-located panels at 150 wavelengths sit inside the near field
    geom = ArrayGeometry(16, 16, spacing=0.5)
    lam = 3e8 / 28e9
    radius = near_field_radius(geom, lam)
    assert np.isclose(radius, 2.0 * (15 * 0.5 * np.sqrt(2.0)) ** 2 * lam)
    assert 150.0 * lam < radius


def test_geometry_validation():
    with pytest.raises(ConfigurationError):
        ArrayGeometry(0, 4)
    with pytest.raises(ConfigurationError):
        ArrayGeometry(4, 4, spacing=0.0)
