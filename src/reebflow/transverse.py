"""Spectral model of the transverse geometry of the round S^3 over CP^1.

The regular Sasakian structure on S^3 fibers over CP^1; Reeb-invariant,
axisymmetric basic potentials reduce to functions of the moment coordinate

    x = (|z|^2 - 1) / (|z|^2 + 1)  in  [-1, 1],

where z is an affine coordinate on the quotient.  In this coordinate the
reference objects take fully explicit form:

* reference measure: uniform, dmu_ref = dx/2 (normalized to mass 1);
* basic Laplacian:   Lap f = 4 d/dx[(1 - x^2) f'(x)], with Legendre
  eigenfunctions P_k and eigenvalues -4k(k+1);
* volume ratio of a deformed structure: r(phi) = 1 + Lap(phi)/4, kept by
  phi; r(psi + s phi) = r(psi) + s Lap(phi)/4 is formed (``_ratio_ld``) and
  checked (``_admissible``) here, never from a Laplacian of the total; the
  flow march carries a ratio between records in the same affine way;
* normalized Ricci potential: h = -log r - (m+1) phi + c, read off the
  ratio with no further Laplacian (``_ricci_potential``);
* transverse scalar curvature: S(phi) * r(phi) = 4 - Lap(log r)/2
  (``_scalar_curvature``), so the reference has S = 4 = 2m(m+1) at
  transverse complex dimension m = 1.

Discretization is Gauss-Legendre collocation.  The Laplacian is diagonal
on Legendre coefficients, so its matrix is exact on the resolved
polynomial space and the discrete spectrum reproduces -4k(k+1) to
rounding.  Both poles of the sphere sit off the grid; no boundary
handling is needed.  Pointwise Laplacians and derivatives go through the
Legendre transform in extended precision, for one field or for a stack
of fields with the grid on the last axis (the flow's record blocks).
The grid is symmetric under x -> -x and P_k has the parity of k, so each
transform folds the grid values into their even and odd parts on half
the nodes and makes two half-size products, as the equatorial-symmetry
split of spherical harmonic transforms does: a Laplacian costs n^2
multiply-adds where full matrices took 2n^2.  d/dx acts on the
coefficients in O(n), by suffix sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial import legendre as npleg
from numpy.typing import NDArray

from .errors import (
    ConfigurationError,
    GridMismatchError,
    InadmissibleError,
    InvariantViolation,
    ResolutionError,
)

MIN_GRID = 8
# the dense operators and tables take about 60 n^2 bytes: 64 MB at 1024
MAX_GRID = 1024
# the grid data and pointwise derivatives assume an 80-bit (or wider)
# longdouble: the check margins were measured with one, and roundoff
# floors that grow like n^4 eps would near their tolerances in float64
_LONGDOUBLE_EPS = float(np.finfo(np.longdouble).eps)
_LONGDOUBLE_EPS_MAX = 1e-18


def _lock(a: NDArray[np.float64]) -> NDArray[np.float64]:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def _nodes_weights_ld(n: int) -> tuple[NDArray, NDArray]:
    """Gauss-Legendre nodes/weights, Newton-refined in extended precision.

    Differentiating through the Legendre transform multiplies coefficient
    roundoff by up to 8 n^3; float64 node tables leave visible noise
    (~1e-6 at n = 256), so the grid data are built in longdouble and cast.
    P_n and P_{n-1} are the last two columns of ``_vander_ld(n + 1, x)``,
    and P_n' = n (x P_n - P_{n-1}) / (x^2 - 1).
    """

    def legendre_pair(x: NDArray) -> tuple[NDArray, NDArray]:
        p_prev, p = _vander_ld(n + 1, x)[:, -2:].T
        return p, n * (x * p - p_prev) / (x * x - 1.0)

    x = npleg.leggauss(n)[0].astype(np.longdouble)
    for _ in range(3):
        p, dp = legendre_pair(x)
        x = x - p / dp
    _, dp = legendre_pair(x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return x, w


def _vander_ld(n: int, x: NDArray) -> NDArray:
    # built degree by degree as contiguous rows, returned as (len(x), n)
    v = np.empty((n, len(x)), dtype=np.longdouble)
    v[0] = 1.0
    v[1] = x
    for k in range(2, n):
        v[k] = ((2 * k - 1) * x * v[k - 1] - (k - 1) * v[k - 2]) / k
    return v.T


def _legder_ld(
    c_even: NDArray[np.longdouble], c_odd: NDArray[np.longdouble]
) -> tuple[NDArray[np.longdouble], NDArray[np.longdouble]]:
    """Legendre coefficients of f' from those of f, split by parity as the
    grid's transforms are (a stack of fields takes the coefficients on its
    last axis): P_j' is the sum of (2k+1) P_k over k < j with j - k odd,
    so the even (odd) coefficients of f' are 2k+1 times the suffix sums of
    the odd (even) coefficients of f; O(n), two cumsums."""
    d_even = np.zeros_like(c_even)
    d_odd = np.zeros_like(c_odd)
    n_odd = c_odd.shape[-1]
    # d_{2a} = (4a+1) sum_{b >= a} c_{2b+1}
    d_even[..., :n_odd] = (
        np.cumsum(c_odd[..., ::-1], axis=-1)[..., ::-1] * (4 * np.arange(n_odd) + 1)
    )
    # d_{2a+1} = (4a+3) sum_{b > a} c_{2b}
    tail = np.cumsum(c_even[..., :0:-1], axis=-1)[..., ::-1]
    d_odd[..., : tail.shape[-1]] = tail * (4 * np.arange(tail.shape[-1]) + 3)
    return d_even, d_odd


@dataclass(frozen=True)
class Grid:
    """Gauss-Legendre collocation grid on [-1, 1] with cached operators.

    ``w`` are quadrature weights for the normalized measure dx/2 (they sum
    to 1).  Differentiation goes through the Legendre transform; the
    Laplacian uses the eigenrelation 4 d/dx[(1-x^2) P_k'] = -4k(k+1) P_k,
    which makes it diagonal on coefficients, exact on the resolved
    polynomial space, and keeps the discrete spectrum exactly -4k(k+1).
    ``lap`` is the assembled dense matrix for linear solves (Newton
    steps, implicit flow steps, eigenproblems); pointwise applications
    go through the Legendre transform in extended precision, which
    carries less roundoff.

    The nodes are symmetric, x_{n-1-i} = -x_i, with symmetric weights,
    and P_k(-x) = (-1)^k P_k(x), all exactly.  So the even coefficients
    of f are a transform of f(x_i) + f(-x_i) and the odd ones of
    f(x_i) - f(-x_i), on the ceil(n/2) nodes x_i <= 0 only; synthesis
    sums the even and odd modes E and O there, and f = E + O at x_i,
    E - O at -x_i.  Each transform is two half-size products, n^2/2
    multiply-adds where the full matrix took n^2.
    """

    n: int
    x: NDArray[np.float64]
    w: NDArray[np.float64]
    vander: NDArray[np.float64]      # P_k(x_i), shape (n, n)
    lap: NDArray[np.float64]
    # the transform halves, in extended precision; pointwise derivative
    # and Laplacian applications run through these so that the 8 n^3
    # roundoff amplification lands on the longdouble epsilon.  Columns
    # and rows run over the nodes x_i <= 0 (the middle node x = 0 of an
    # odd grid is the last, with half its weight, since the fold doubles
    # it); the even tables hold k = 0, 2, ..., the odd ones k = 1, 3, ...
    _w_ld: NDArray[np.longdouble]
    _fwd_even_ld: NDArray[np.longdouble]   # (2k+1) w_i/2 P_k(x_i), even k
    _fwd_odd_ld: NDArray[np.longdouble]    # the same, odd k
    _syn_even_ld: NDArray[np.longdouble]   # P_k(x_i), even k
    _syn_odd_ld: NDArray[np.longdouble]    # P_k(x_i), odd k
    _lap_eigs_ld: NDArray[np.longdouble]

    def __eq__(self, other):
        return isinstance(other, Grid) and self.n == other.n

    def __hash__(self):
        return hash(("Grid", self.n))

    # -- transforms ------------------------------------------------------

    def from_coeffs(self, c: NDArray) -> NDArray[np.float64]:
        c = np.asarray(c, dtype=np.float64)
        if len(c) < self.n:
            c = np.pad(c, (0, self.n - len(c)))
        return self.vander @ c

    # The transforms take one field or a stack of them, with the grid on
    # the last axis.  The half-size products go through np.dot with the
    # table transposed: its longdouble kernel forms each output entry as
    # one dot of a field row with a table row, in the order a 1-D matrix-
    # vector product (and the matmul operator) sums it, so a row of a
    # stacked transform has the bits of that row's own transform, and a
    # stack costs one call where a loop over rows took one per row.

    def _field_ld(self, f: NDArray) -> NDArray[np.longdouble]:
        """f in extended precision; GridMismatchError unless its last axis
        is the grid's."""
        f = np.asarray(f, dtype=np.longdouble)
        # the fold alone would take any last axis at least ceil(n/2) long
        if f.ndim == 0 or f.shape[-1] != self.n:
            raise GridMismatchError(f"field has shape {f.shape}, grid expects (..., {self.n})")
        return f

    def _forward_ld(self, f: NDArray[np.longdouble]) -> tuple[NDArray, NDArray]:
        """Even and odd Legendre coefficients of grid values f, checked by
        ``_field_ld``."""
        h = len(self._syn_even_ld)
        head = f[..., :h]
        mirror = f[..., : -h - 1 : -1]    # f(-x_i) on the nodes x_i <= 0
        return (np.dot(head + mirror, self._fwd_even_ld.T),
                np.dot(head - mirror, self._fwd_odd_ld.T))

    def _synthesis_ld(self, c_even: NDArray, c_odd: NDArray) -> NDArray[np.longdouble]:
        """Grid values of the Legendre series with the given even and odd
        coefficients."""
        even = np.dot(c_even, self._syn_even_ld.T)
        odd = np.dot(c_odd, self._syn_odd_ld.T)
        mirror = (even - odd)[..., self.n - even.shape[-1] - 1 :: -1]
        return np.concatenate((even + odd, mirror), axis=-1)

    # -- calculus --------------------------------------------------------

    def integrate(self, f: NDArray) -> float:
        """Integral against the normalized reference measure dx/2."""
        return float(self.w @ np.asarray(f, dtype=np.float64))

    def deriv(self, f: NDArray) -> NDArray[np.float64]:
        return self._deriv_ld(f).astype(np.float64)

    def _deriv_ld(self, f: NDArray) -> NDArray[np.longdouble]:
        c_even, c_odd = self._forward_ld(self._field_ld(f))
        return self._synthesis_ld(*_legder_ld(c_even, c_odd))

    def laplacian(self, f: NDArray) -> NDArray[np.float64]:
        return self._laplacian_ld(f).astype(np.float64)

    def _laplacian_ld(self, f: NDArray) -> NDArray[np.longdouble]:
        # Large additive constants amplify roundoff through the top Legendre
        # modes (the eigenvalue reaches -4n^2); subtracting the mean first is
        # exact for the operator and keeps the noise floor at the O(1)-field
        # level.  Chained applications (ratio, then its curvature) square
        # the amplification, so callers feeding one Laplacian into another
        # stay in longdouble between the two.
        f = self._field_ld(f)
        c_even, c_odd = self._forward_ld(f - np.dot(f, self._w_ld)[..., None])
        eigs = self._lap_eigs_ld
        return self._synthesis_ld(eigs[0::2] * c_even, eigs[1::2] * c_odd)


@lru_cache(maxsize=8)
def make_grid(n: int = 256) -> Grid:
    """Build the collocation grid, MIN_GRID <= n <= MAX_GRID.  Grids are cached
    per size (they are immutable).  InvariantViolation when np.longdouble
    is not an extended type (epsilon above 1e-18)."""
    if _LONGDOUBLE_EPS > _LONGDOUBLE_EPS_MAX:
        raise InvariantViolation(
            f"np.longdouble has epsilon {_LONGDOUBLE_EPS:.3e}; the grid needs an "
            f"extended type with epsilon <= {_LONGDOUBLE_EPS_MAX:g}"
        )
    if not (MIN_GRID <= n <= MAX_GRID) or int(n) != n:
        raise ConfigurationError(f"grid size {n} is not an integer in [{MIN_GRID}, {MAX_GRID}]")
    n = int(n)
    h = (n + 1) // 2
    x_ld, w_raw_ld = _nodes_weights_ld(n)
    # P_k on the nodes x_i <= 0; the rest of the grid mirrors them exactly
    half_ld = _vander_ld(n, x_ld[:h])
    k = np.arange(n)
    # c_k = (2k+1) * sum_i w_i f(x_i) P_k(x_i); exact for deg(f) < n.
    fwd_ld = (2 * k + 1)[:, None] * (half_ld.T * (w_raw_ld[:h] / 2)[None, :])
    if n % 2:
        fwd_ld[:, -1] /= 2
    x = x_ld.astype(np.float64)
    w = (w_raw_ld / 2).astype(np.float64)
    half = half_ld.astype(np.float64)
    vander = np.concatenate((half, (-1.0) ** k * half[n - h - 1 :: -1]))
    lam = -4.0 * k * (k + 1.0)
    lap = (vander * (lam * (2 * k + 1))[None, :]) @ (vander.T * w[None, :])
    return Grid(
        n=n,
        x=_lock(x),
        w=_lock(w),
        vander=_lock(vander),
        lap=_lock(lap),
        _w_ld=w_raw_ld / 2,
        _fwd_even_ld=np.ascontiguousarray(fwd_ld[0::2]),
        _fwd_odd_ld=np.ascontiguousarray(fwd_ld[1::2]),
        _syn_even_ld=np.ascontiguousarray(half_ld[:, 0::2]),
        _syn_odd_ld=np.ascontiguousarray(half_ld[:, 1::2]),
        _lap_eigs_ld=k.astype(np.longdouble) * (k + 1) * -4,
    )


# ---------------------------------------------------------------------------
# structures and potentials
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BasicPotential:
    """Axisymmetric basic potential sampled on the collocation grid; its
    values must be finite (ConfigurationError otherwise).  Its longdouble
    Laplacian is applied on first read and kept, for every reader."""

    values: NDArray[np.float64]
    grid: Grid

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.n,):
            raise GridMismatchError(
                f"potential has shape {v.shape}, grid expects ({self.grid.n},)"
            )
        if not np.isfinite(v).all():
            raise ConfigurationError("potential has non-finite values")
        object.__setattr__(self, "values", _lock(v))

    @classmethod
    def from_callable(cls, grid: Grid, f: Callable[[NDArray], NDArray]) -> "BasicPotential":
        return cls(values=np.asarray(f(grid.x), dtype=np.float64) + np.zeros(grid.n), grid=grid)

    @classmethod
    def zero(cls, grid: Grid) -> "BasicPotential":
        return cls(values=np.zeros(grid.n), grid=grid)

    @cached_property
    def _lap_ld(self) -> NDArray[np.longdouble]:
        lap = self.grid._laplacian_ld(self.values)
        lap.flags.writeable = False
        return lap

    @cached_property
    def _kept_ratio_ld(self) -> NDArray[np.longdouble]:
        ratio = 1.0 + self._lap_ld / 4.0
        ratio.flags.writeable = False
        return ratio

    def _plus(self, other: "BasicPotential") -> "BasicPotential":
        """self + other, keeping Lap self + Lap other and r(self + other)."""
        total = BasicPotential(values=self.values + other.values, grid=self.grid)
        object.__setattr__(total, "_lap_ld", self._lap_ld + other._lap_ld)
        object.__setattr__(total, "_kept_ratio_ld", _ratio_ld(self, other))
        return total

    def shifted(self, c: float) -> "BasicPotential":
        return BasicPotential(values=self.values + float(c), grid=self.grid)

    def osc(self) -> float:
        return float(self.values.max() - self.values.min())

    def sup(self) -> float:
        return float(np.abs(self.values).max())


def _ratio_ld(psi: BasicPotential, phi: BasicPotential, s=1.0) -> NDArray[np.longdouble]:
    """r(psi + s phi) = r(psi) + s Lap(phi)/4 in extended precision, from the
    ratio 1 + Lap(psi)/4 that psi keeps and the Laplacian phi keeps; one row
    per s for an array s."""
    rows = np.asarray(s, dtype=np.longdouble)[..., None] * (phi._lap_ld / 4.0)
    rows += psi._kept_ratio_ld
    return rows


def _admissible(ratio_ld: NDArray[np.longdouble]) -> NDArray[np.float64]:
    """Cast a volume ratio, or a stack of them as rows, to float64, as every
    ratio in the package is; InadmissibleError(margin) unless each row's
    minimum is positive (NaN is not), with the margin of the first row that
    is not."""
    ratio = ratio_ld.astype(np.float64)
    if not (ratio.min() > 0.0):
        margins = np.atleast_1d(ratio.min(axis=-1))
        raise InadmissibleError(float(margins[np.argmin(margins > 0.0)]))
    return ratio


def admissibility(phi: BasicPotential) -> tuple[bool, float]:
    """Whether the deformed structure is positive, and the margin min r(phi)."""
    try:
        return True, float(_admissible(phi._kept_ratio_ld).min())
    except InadmissibleError as exc:
        return False, exc.margin


# ---------------------------------------------------------------------------
# metric states
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MetricState:
    """Derived geometric data of an admissible potential.  Construction
    casts and checks the ratio; the rest is computed on first read, kept
    and read-only, from the ratio and the potential's kept Laplacian.

    ratio            volume ratio r(phi) against the reference measure
    ricci_potential  normalized Ricci potential h with int e^h dmu_phi = 1
    norm_constant    the constant c in h = -log r - (m+1) phi + c
    scalar_curvature transverse scalar curvature S of the deformed
                     structure, the one field that applies a Laplacian
    """

    potential: BasicPotential
    ratio: NDArray[np.float64]

    @cached_property
    def _ricci(self) -> tuple[NDArray[np.float64], float]:
        h, c = _ricci_potential(self.grid, self.ratio, self.potential.values)
        return _lock(h), float(c)

    ricci_potential = property(lambda self: self._ricci[0])
    norm_constant = property(lambda self: self._ricci[1])

    @cached_property
    def scalar_curvature(self) -> NDArray[np.float64]:
        return _lock(_scalar_curvature(self.grid, self.potential._kept_ratio_ld))

    @property
    def grid(self) -> Grid:
        return self.potential.grid

    def _check_grid(self, phi: BasicPotential) -> None:
        """GridMismatchError unless phi lives on this state's grid, where a
        potential meets a base."""
        if phi.grid != self.grid:
            raise GridMismatchError(
                f"potential on a {phi.grid.n}-node grid, base on a {self.grid.n}-node grid"
            )

    @property
    def measure(self) -> NDArray[np.float64]:
        """Quadrature weights of the deformed (normalized) measure."""
        return self.grid.w * self.ratio

    def integrate(self, f: NDArray) -> float:
        """Integral against the deformed measure dmu_phi."""
        return float(self.measure @ np.asarray(f, dtype=np.float64))

    def laplacian(self, f: NDArray) -> NDArray[np.float64]:
        """Laplacian of the deformed structure: reference Laplacian / ratio."""
        return self.grid.laplacian(f) / self.ratio

    def grad_norm_sq(self, f: NDArray) -> NDArray[np.float64]:
        """|df|^2 in the deformed metric (``_grad_norm_sq``)."""
        return _grad_norm_sq(self.grid, self.ratio, self.grid.deriv(f))


M_DIM = 1            # transverse complex dimension of the PDE model
SCALAR_TARGET = 4.0  # 2 m (m+1) at m = 1; also the quotient Gauss curvature


def log_mean_exp(w: NDArray, z: NDArray) -> np.float64 | NDArray[np.float64]:
    """log of int e^z against the given (nonnegative, mass ~1) weights:
    a float for one field, and one value per row for a stack of fields
    with the grid on the last axis.

    Guarded against overflow; mandatory for Ricci-potential normalization
    because flow trajectories develop large additive constants.  Each
    row's integral is one float64 dot with the weights (``np.vecdot``),
    with the bits of the 1-D ``w @ row``.
    """
    z = np.asarray(z, dtype=np.float64)
    zmax = z.max(axis=-1, keepdims=True)
    return (zmax[..., 0] + np.log(np.vecdot(np.exp(z - zmax), w)))[()]


def _ricci_potential(
    grid: Grid, ratio: NDArray[np.float64], values: NDArray
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Ricci potential h = -log r - (m+1) phi + c of the total potential
    ``values`` and its constant c, read off the checked ratio r alone: no
    Laplacian.  Like the two formulas below, it takes one field or a stack
    of them with the grid on the last axis (the flow's record blocks)."""
    # Normalization: int e^h dmu_phi = e^c int e^{-(m+1) phi} dmu_ref = 1,
    # so c is the explicit log-integral below (no root-find needed: e^c
    # multiplies a fixed positive integral), one per row.
    z = -(M_DIM + 1) * values
    c = -log_mean_exp(grid.w, z)
    return z - np.log(ratio) + c[..., None], c


def _scalar_curvature(grid: Grid, r: NDArray[np.longdouble]) -> NDArray[np.float64]:
    """S from the volume ratio r in extended precision: S r = 4 - Lap(log r)/2,
    in longdouble between the two Laplacians."""
    return ((SCALAR_TARGET - 0.5 * grid._laplacian_ld(np.log(r))) / r).astype(np.float64)


def _grad_norm_sq(grid: Grid, ratio: NDArray[np.float64], df: NDArray) -> NDArray[np.float64]:
    """|df|^2 in the deformed metric of volume ratio r: 4 (1-x^2) f'^2 / r."""
    return 4.0 * (1.0 - grid.x**2) * df**2 / ratio


def metric_state(phi: BasicPotential) -> MetricState:
    """The state of a potential: its volume ratio, checked, with the Ricci
    potential and scalar curvature computed on first read.

    Raises InadmissibleError when the deformed structure is not positive.
    """
    return MetricState(potential=phi, ratio=_lock(_admissible(phi._kept_ratio_ld)))


def reference_state(grid: Grid) -> MetricState:
    return metric_state(BasicPotential.zero(grid))


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Leading eigenvalues of the deformed Laplacian (axisymmetric sector).

    eigenvalues       sorted descending from 0 toward -inf
    clusters          (eigenvalue, multiplicity) after tolerance grouping
    has_obstruction   True when -4(m+1) lies in the computed spectrum
                      (to 1e-6 relative); on the round model this flags
                      the Hamiltonian holomorphic fields that obstruct
                      uniqueness
    obstruction_gap   min distance of the spectrum to -4(m+1)
    """

    eigenvalues: NDArray[np.float64]
    clusters: tuple[tuple[float, int], ...]
    has_obstruction: bool
    obstruction_gap: float


def spectrum(state: MetricState, k: int) -> SpectrumResult:
    """First k+1 eigenvalues (including 0) of the deformed basic Laplacian.

    Solves the generalized symmetric problem  Lap_ref f = lambda r f  in
    the quadrature inner product; on the reference this returns exactly
    -4 j (j+1).  Requires k <= n // 3 (spectral accuracy window).
    """
    grid = state.grid
    if k < 0:
        raise ConfigurationError("k must be nonnegative")
    if k > grid.n // 3:
        raise ResolutionError(
            f"requested {k} eigenvalues on an n={grid.n} grid; "
            f"resolvable window is k <= {grid.n // 3}"
        )
    # B = diag(w r) is positive, so the problem is the symmetric
    # eigenproblem of B^{-1/2} A B^{-1/2}
    s = 1.0 / np.sqrt(grid.w * state.ratio)
    a = s[:, None] * (grid.w[:, None] * grid.lap) * s[None, :]
    vals = np.linalg.eigvalsh(0.5 * (a + a.T))
    vals = vals[::-1][: k + 1]  # descending: 0 first
    clusters: list[tuple[float, int]] = []
    for v in vals:
        if clusters and abs(v - clusters[-1][0]) <= 1e-8 * (1.0 + abs(v)):
            ev, mult = clusters[-1]
            clusters[-1] = (ev, mult + 1)
        else:
            clusters.append((float(v), 1))
    target = -4.0 * (M_DIM + 1)
    gap = float(np.abs(vals - target).min())
    return SpectrumResult(
        eigenvalues=_lock(vals),
        clusters=tuple(clusters),
        has_obstruction=bool(gap <= abs(target) * 1e-6),
        obstruction_gap=gap,
    )
