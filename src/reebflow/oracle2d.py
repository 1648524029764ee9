"""Brute-force latitude-longitude oracle for the 1-D moment reductions.

Everything in the main modules runs on the 1-D moment coordinate.  The
formulas used there (volume ratio, basic Laplacian, scalar curvature)
are dimensional reductions of honest 2-D geometry on the quotient
sphere, and this module recomputes them the slow way so the reductions
can be cross-checked:

* the quotient is the round sphere of Gauss curvature 4 (radius 1/2),
  coordinates (theta, azimuth), metric ds^2 = (dtheta^2 + sin^2 theta
  d az^2) / 4, related to the moment coordinate by x = -cos(theta);
* the Laplacian is the full 2-D finite-difference Laplace-Beltrami
  operator applied to the axisymmetric lift on the product grid;
* the deformed scalar curvature comes from the metric components
  E = r/4, G = r sin^2(theta)/4 through the general curvature formula
  for an orthogonal metric - no conformal shortcut, so it is an
  independent route;
* the squared gradient of the potential in the deformed metric is
  (d_theta phi)^2 / E = 4 (d_theta phi)^2 / r.

Stencils are 6th-order central on a staggered theta grid (poles fall
between nodes); ghost values use the smooth even reflection across the
poles valid for axisymmetric data.

The chain runs in extended precision internally.  Near the poles the
cot(theta) and 1/sin(theta) factors amplify rounding noise in the
finite-difference quotients by several orders of magnitude, and the
curvature route differentiates the resulting fields twice more; in
float64 that noise floor sits around 1e-4, far above the stencil
truncation error.  Extended precision pushes it back below 1e-8 while
every derivative stays an honest finite difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

GAUSS_CURVATURE = 4.0


@dataclass(frozen=True, eq=False)
class SphereGrid:
    n_theta: int
    n_az: int
    theta: NDArray[np.longdouble]
    az: NDArray[np.longdouble]
    h: np.longdouble

    @property
    def x(self) -> NDArray[np.longdouble]:
        return -np.cos(self.theta)


def make_sphere_grid(n_theta: int = 512, n_az: int = 8) -> SphereGrid:
    pi = np.longdouble(np.pi) + np.longdouble(1.2246467991473531772e-16)
    h = pi / n_theta
    theta = (np.arange(n_theta, dtype=np.longdouble) + np.longdouble(0.5)) * h
    az = np.arange(n_az, dtype=np.longdouble) * (2 * pi / n_az)
    return SphereGrid(n_theta=n_theta, n_az=n_az, theta=theta, az=az, h=h)


def _pad_theta(f2: NDArray, k: int) -> NDArray:
    """Extend across both poles by even reflection (axisymmetric data)."""
    top = f2[k - 1 :: -1, :]
    bot = f2[: -k - 1 : -1, :]
    return np.vstack([top, f2, bot])


def _d_theta(f2: NDArray, h: float) -> NDArray:
    g = _pad_theta(f2, 3)
    return (
        -g[:-6] + 9 * g[1:-5] - 45 * g[2:-4] + 45 * g[4:-2] - 9 * g[5:-1] + g[6:]
    ) / (60 * h)


def _d2_theta(f2: NDArray, h: float) -> NDArray:
    g = _pad_theta(f2, 3)
    return (
        2 * g[:-6] - 27 * g[1:-5] + 270 * g[2:-4] - 490 * g[3:-3]
        + 270 * g[4:-2] - 27 * g[5:-1] + 2 * g[6:]
    ) / (180 * h * h)


def _d2_az(f2: NDArray, daz: float) -> NDArray:
    return (
        2 * np.roll(f2, 3, axis=1)
        - 27 * np.roll(f2, 2, axis=1)
        + 270 * np.roll(f2, 1, axis=1)
        - 490 * f2
        + 270 * np.roll(f2, -1, axis=1)
        - 27 * np.roll(f2, -2, axis=1)
        + 2 * np.roll(f2, -3, axis=1)
    ) / (180 * daz * daz)


def laplacian_2d(grid: SphereGrid, f2: NDArray) -> NDArray:
    """Laplace-Beltrami operator of the radius-1/2 sphere on the product
    grid: 4 [ f_tt + cot(theta) f_t + f_aa / sin^2(theta) ]."""
    theta = grid.theta[:, None]
    daz = grid.az[1] - grid.az[0] if grid.n_az > 1 else np.longdouble(2 * np.pi)
    ft = _d_theta(f2, grid.h)
    ftt = _d2_theta(f2, grid.h)
    faa = _d2_az(f2, daz)
    return GAUSS_CURVATURE * (ftt + ft / np.tan(theta) + faa / np.sin(theta) ** 2)


def lift(grid: SphereGrid, fx: Callable[[NDArray], NDArray]) -> NDArray[np.longdouble]:
    """Lift a function of the moment coordinate to the 2-D grid."""
    col = np.asarray(fx(grid.x), dtype=np.longdouble) + np.zeros(grid.n_theta, dtype=np.longdouble)
    return np.repeat(col[:, None], grid.n_az, axis=1)


@dataclass(frozen=True, eq=False)
class OracleFields:
    grid: SphereGrid
    ratio: NDArray[np.float64]             # axisymmetric profiles on theta
    lap_phi: NDArray[np.float64]
    scalar_curvature: NDArray[np.float64]
    grad_norm_sq: NDArray[np.float64]


def oracle_fields(grid: SphereGrid, phi_x: Callable[[NDArray], NDArray]) -> OracleFields:
    """Ratio, Laplacian, deformed scalar curvature and squared gradient
    |dphi|^2 of a potential, computed purely with 2-D finite differences."""
    phi2 = lift(grid, phi_x)
    lap_phi2 = laplacian_2d(grid, phi2)
    ratio2 = 1.0 + lap_phi2 / 4.0
    if ratio2.min() <= 0:
        raise ValueError(
            f"potential not admissible on oracle grid (min ratio {float(ratio2.min()):.3e})"
        )

    # curvature of ds^2 = E dtheta^2 + G daz^2 with E = r/4, G = r sin^2/4:
    # K = -(1/(2 sqrt(EG))) d/dtheta( G' / sqrt(EG) ), axisymmetric case.
    # With sqrt(EG) = r sin(theta)/4 inserted algebraically this becomes
    # K = -2 d/dtheta[ sin(theta) r'/r + 2 cos(theta) ] / (r sin(theta)),
    # which keeps every derivative a finite difference while avoiding the
    # second division by sin(theta) near the poles.
    r = ratio2[:, 0]
    sin = np.sin(grid.theta)
    rp = _d_theta(r[:, None], grid.h)[:, 0]
    inner = sin * rp / r + 2.0 * np.cos(grid.theta)
    k_curv = -2.0 * _d_theta(inner[:, None], grid.h)[:, 0] / (r * sin)
    dphi = _d_theta(phi2[:, :1], grid.h)[:, 0]

    return OracleFields(
        grid=grid,
        ratio=r.astype(np.float64),
        lap_phi=lap_phi2[:, 0].astype(np.float64),
        scalar_curvature=k_curv.astype(np.float64),
        grad_norm_sq=(4.0 * dphi**2 / r).astype(np.float64),
    )


def sample_profile(grid: SphereGrid, profile: NDArray, x: NDArray) -> NDArray[np.float64]:
    """Interpolate an axisymmetric theta-profile to moment-coordinate
    points with the local degree-7 Lagrange polynomial through the 8
    uniform theta nodes around each target, on the pole-reflected grid.

    Sampling the oracle at the collocation nodes (rather than the other
    way round) keeps the comparison away from the x = +-1 endpoints,
    where evaluating a collocation interpolant sums the rounding noise
    of all its high modes coherently.  Degree 5 is too low: at
    n_theta = 256 its interpolation error pushes the profile mismatch
    past 1e-6.
    """
    f_pad = _pad_theta(np.asarray(profile, dtype=np.float64)[:, None], 4)[:, 0]
    theta_t = np.arccos(np.clip(-np.asarray(x, dtype=np.float64), -1.0, 1.0))
    # node i sits at theta = (i + 1/2) h and at index i + 4 of f_pad; i0 is
    # the last node at or below each target, the stencil i0 - 3 .. i0 + 4
    pos = theta_t / float(grid.h) - 0.5
    i0 = np.floor(pos).astype(np.intp)
    offsets = np.arange(-3, 5)
    others = ~np.eye(8, dtype=bool)
    num = np.prod(np.where(others, (pos - i0)[:, None, None] - offsets, 1.0), axis=2)
    den = np.prod(np.where(others, offsets[:, None] - offsets, 1), axis=1)
    return ((num / den) * f_pad[i0[:, None] + offsets + 4]).sum(axis=1)


def compare_profiles(
    fields: OracleFields,
    x: NDArray,
    ratio: NDArray,
    lap_phi: NDArray,
    scalar_curvature: NDArray,
    grad_norm_sq: NDArray,
) -> dict[str, float]:
    """Max-abs mismatch of each oracle profile against reference values
    given at moment-coordinate points x."""
    out = {}
    for name, prof, ref in (
        ("ratio", fields.ratio, ratio),
        ("lap_phi", fields.lap_phi, lap_phi),
        ("scalar_curvature", fields.scalar_curvature, scalar_curvature),
        ("grad_norm_sq", fields.grad_norm_sq, grad_norm_sq),
    ):
        vals = sample_profile(fields.grid, prof, x)
        out[name] = float(np.abs(vals - np.asarray(ref)).max())
    return out
