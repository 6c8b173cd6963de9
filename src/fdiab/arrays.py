"""Uniform planar array (UPA) geometry, steering vectors, and subarray element blocks.

Phase convention shared by the channel and transceiver modules: the phase
reference sits at element (0, 0); the row index advances the elevation axis
and the column index the azimuth axis, so

    a[r, c] = exp(j * 2*pi * spacing * (r*sin(el) + c*cos(el)*sin(az))) / sqrt(N)

Elements are flattened row-major (index = r*cols + c) everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError


@dataclass(frozen=True)
class ArrayGeometry:
    """A rows-by-cols UPA with element pitch given in wavelengths.

    ``origin`` locates element (0, 0) in meters; every panel lies broadside
    to z, with columns along x and rows along y.
    """

    rows: int
    cols: int
    spacing: float = 0.5
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ConfigurationError(f"UPA needs positive dimensions, got {self.rows}x{self.cols}")
        if self.spacing <= 0.0:
            raise ConfigurationError(f"element spacing must be positive, got {self.spacing}")
        if len(self.origin) != 3:
            raise ConfigurationError("origin must be a 3-vector in meters")

    @property
    def num_elements(self) -> int:
        return self.rows * self.cols


def _check_angles(azimuth, elevation):
    az = np.asarray(azimuth, dtype=float)
    el = np.asarray(elevation, dtype=float)
    if np.any(az < -np.pi) or np.any(az > np.pi):
        raise DomainError("azimuth must lie in [-pi, pi]")
    if np.any(el < -np.pi / 2) or np.any(el > np.pi / 2):
        raise DomainError("elevation must lie in [-pi/2, pi/2]")
    return az, el


def steering_matrix(geom: ArrayGeometry, azimuth, elevation) -> np.ndarray:
    """Unit-norm steering vectors for arrays of angles, stacked as columns.

    Returns complex (num_elements, P) for P angle pairs.
    """
    az, el = _check_angles(azimuth, elevation)
    az = np.atleast_1d(az)
    el = np.atleast_1d(el)
    if az.shape != el.shape:
        raise DomainError("azimuth and elevation arrays must have matching shapes")
    idx = np.arange(geom.num_elements)
    r = (idx // geom.cols)[:, None]
    c = (idx % geom.cols)[:, None]
    phase = 2.0 * np.pi * geom.spacing * (
        r * np.sin(el)[None, :] + c * np.cos(el)[None, :] * np.sin(az)[None, :]
    )
    return np.exp(1j * phase) / np.sqrt(geom.num_elements)


def upa_steering(geom: ArrayGeometry, azimuth: float, elevation: float) -> np.ndarray:
    """Unit-norm UPA response vector for a single (azimuth, elevation) pair."""
    return steering_matrix(geom, [azimuth], [elevation])[:, 0]


def partition_subarrays(num_elements: int, num_subarrays: int) -> tuple[range, ...]:
    """Split 0..N-1 into U contiguous equal element blocks; U must divide N."""
    if num_elements < 1 or num_subarrays < 1:
        raise ConfigurationError("element and subarray counts must be positive")
    if num_elements % num_subarrays != 0:
        raise ConfigurationError(
            f"subarray-divisibility: {num_subarrays} subarrays do not divide {num_elements} elements"
        )
    size = num_elements // num_subarrays
    return tuple(range(u * size, (u + 1) * size) for u in range(num_subarrays))


def element_positions(geom: ArrayGeometry, wavelength: float = 1.0) -> np.ndarray:
    """Element coordinates (num_elements, 3) on the regular grid, in meters.

    With the default ``wavelength=1.0`` the coordinates come out in
    wavelength units.
    """
    if wavelength <= 0.0:
        raise DomainError("wavelength must be positive")
    pitch = geom.spacing * wavelength
    col_axis, row_axis = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    idx = np.arange(geom.num_elements)
    r = (idx // geom.cols)[:, None]
    c = (idx % geom.cols)[:, None]
    return np.asarray(geom.origin)[None, :] + pitch * (c * col_axis[None, :] + r * row_axis[None, :])


def aperture_diameter(geom: ArrayGeometry, wavelength: float = 1.0) -> float:
    """Largest inter-element distance: the grid diagonal, in meters."""
    pitch = geom.spacing * wavelength
    return pitch * float(np.hypot(geom.rows - 1, geom.cols - 1))


def near_field_radius(geom: ArrayGeometry, wavelength: float) -> float:
    """Fraunhofer boundary 2*D^2/lambda below which near-field models apply."""
    d = aperture_diameter(geom, wavelength)
    return 2.0 * d * d / wavelength
