"""Energy functionals of basic potentials and their structure identities.

The functionals I, J, F0, F and the K-energy are defined against a base
metric state; potentials compose additively, so a state deformed by phi
relative to a base with potential psi is simply the state of psi + phi.
All measures are normalized to mass one, which makes every functional
finite and translation behavior explicit.

The functionals read only volume ratios along the ray s -> psi + s phi,
and those are affine in s: r(psi + s phi) = r(psi) + s Lap(phi)/4
exactly.  Each evaluation forms every ratio on the ray in extended
precision from the ratio psi keeps and the Laplacian phi keeps, as
``relative_state`` forms that of psi + phi (``transverse._ratio_ld``), in
one pass for all of a quadrature's nodes, as the rows of one (nodes, n)
array, cast once and checked row by row, so a nonpositive row raises
InadmissibleError with the margin of the first such node.  Each row's
integral is its own dot product (one ``np.vecdot`` over the rows, with
each row's 1-D bits) and the rule's sum runs node by node
(``np.cumsum``), as a node-at-a-time loop sums them; one matrix-vector
product over the rows would round differently in the last bits.
``FunctionalLedger`` shares the Laplacian of phi, and the one ratio at
s = 1, across I, J, F0, F and K.

Quadrature choices: J integrates I(s phi)/s with a 32-node Gauss rule in
s (the integrand is smooth, here in fact linear in s); the K-energy
integrates over the path parameter of the linear ray with 48 Gauss nodes.
``FunctionalLedger.evaluate`` is the one route to I, J, K and the margin,
``eval_F`` to F0 and F alone.

The K-energy integrand is evaluated after moving the Laplacian off the
log-ratio field by self-adjointness: int f Lap(log r) dmu equals
int Lap(f) log r dmu exactly for the discrete operator, and the moved
form avoids differentiating a computed field a second time (which
amplifies its rounding noise by the top Laplacian eigenvalue).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg
from numpy.typing import NDArray

from .errors import SolverError
from .transverse import (
    M_DIM,
    SCALAR_TARGET,
    BasicPotential,
    Grid,
    MetricState,
    _admissible,
    _ratio_ld,
    _ricci_potential,
    admissibility,
    log_mean_exp,
    metric_state,
)

__all__ = [
    "FunctionalLedger",
    "CocycleReport",
    "MabuchiReport",
    "relative_state",
    "eval_F",
    "verify_cocycle",
    "verify_mabuchi_f_relation",
    "random_potential",
]


@lru_cache(maxsize=4)
def _gauss01(n: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Gauss-Legendre nodes and weights on (0, 1)."""
    t, w = npleg.leggauss(n)
    return (t + 1.0) / 2.0, w / 2.0


def relative_state(base: MetricState, phi: BasicPotential) -> MetricState:
    """State of the base deformed by phi (``_ratio_ld``, no Laplacian of the
    total); GridMismatchError unless phi lives on the base's grid."""
    base._check_grid(phi)
    return metric_state(base.potential._plus(phi))


class _Ray:
    """Volume ratios along s -> psi + s phi, psi the base potential.

    r(psi + s phi) is summed in extended precision and cast (``_ratio_ld``,
    with the bits of ``relative_state`` at s = 1), so no metric state is
    built along the ray.  A quadrature forms the ratios at all its nodes as
    the rows of one array, checked row by row; each row's integral is its
    own 1-D dot and the rule's sum runs over the nodes in order.
    """

    def __init__(self, phi: BasicPotential, base: MetricState):
        base._check_grid(phi)
        self.phi = phi
        self.base = base

    @cached_property
    def ratio(self) -> NDArray[np.float64]:
        """Volume ratio of psi + phi; InadmissibleError if not positive."""
        return _admissible(_ratio_ld(self.base.potential, self.phi))

    def i_value(self) -> float:
        """I(phi) = int phi (dmu_base - dmu_phi)."""
        return float(self.phi.grid.w @ (self.phi.values * (self.base.ratio - self.ratio)))

    def j_value(self) -> float:
        """J(phi) = int_0^1 I(s phi)/s ds by a 32-node Gauss rule in s.

        I vanishes quadratically at s = 0, so the integrand extends
        smoothly.  The rule stays a real 32-point quadrature, so J = I/2 at
        m = 1 is a computed identity, not a definition.  Admissibility of
        phi gives it along the ray (the ratios are affine in s, so positive
        at both ends means positive between); still each node's ratio is
        checked, and the first inadmissible node in s raises
        InadmissibleError with its margin.
        """
        s, w = _gauss01(32)
        # row j becomes the integrand s_j phi (r_base - r_j) of I(s_j phi),
        # in place to keep the (nodes, n) temporaries few
        rows = _admissible(_ratio_ld(self.base.potential, self.phi, s))
        np.subtract(self.base.ratio, rows, out=rows)
        rows *= s[:, None] * self.phi.values
        # the rule's sum over the nodes in order, as a loop would add them
        return float(np.cumsum(w * np.vecdot(rows, self.phi.grid.w) / s)[-1])

    def f_values(self, j_val: float) -> tuple[float, float]:
        grid, base, phi = self.phi.grid, self.base, self.phi.values
        f0 = j_val - float(grid.w @ (phi * base.ratio))
        z = base.ricci_potential - (M_DIM + 1) * phi
        f = f0 - log_mean_exp(grid.w * base.ratio, z) / (M_DIM + 1)
        return float(f0), float(f)

    def k_energy(self) -> float:
        """K-energy by 48-node Gauss quadrature of
        -int phidot (S_t - 2m(m+1)) dmu_t dt along phi_t = t phi.

        The ratio r_t at each node is read off the affine ray
        r(psi) + t Lap(phi)/4, all 48 as one array checked row by row, and
        Lap(phi) is the same one field that carries the moved Laplacian of
        log r_t, so the quadrature reads one Laplacian, the one phi keeps.
        The first nonpositive r_t in t raises InadmissibleError with its
        margin.
        """
        t, t_weights = _gauss01(48)
        w, phi = self.phi.grid.w, self.phi.values
        ratios = _admissible(_ratio_ld(self.base.potential, self.phi, t))
        # int phi (S_t - 4) dmu_t; the Lap(log r_t) part of S_t r_t is
        # moved onto phi by self-adjointness before quadrature.
        moved = np.log(ratios)
        moved *= self.phi._lap_ld.astype(np.float64)
        excess = np.subtract(1.0, ratios, out=ratios)
        excess *= phi
        terms = t_weights * (SCALAR_TARGET * np.vecdot(excess, w) - 0.5 * np.vecdot(moved, w))
        return float(-np.cumsum(terms)[-1])


def eval_F(phi: BasicPotential, base: MetricState) -> tuple[float, float]:
    """F0 = J - int phi dmu_base and the full F with its log term.

    F = F0 - 1/(m+1) log int e^{h - (m+1) phi} dmu_base, where h is the
    Ricci potential of the base; the exponent is evaluated through the
    log-sum-exp guard since (m+1) phi grows without bound along
    properness scans.
    """
    ray = _Ray(phi, base)
    return ray.f_values(ray.j_value())


# ---------------------------------------------------------------------------
# identity reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CocycleReport:
    """Residuals of the composition law F(psi) + F_psi(phi - psi) = F(phi)
    and of the antisymmetry F(psi) = -F_psi(-psi), for F0 and F."""

    cocycle_f0: float
    cocycle_f: float
    antisym_f0: float
    antisym_f: float


def verify_cocycle(
    psi_ledger: FunctionalLedger, phi_ledger: FunctionalLedger, base: MetricState
) -> CocycleReport:
    """The cocycle report of the ledgers' potentials psi and phi.

    Both ledgers must have been evaluated against ``base``: F0 and F of
    psi and phi are read off them, and only the two values against the
    base deformed by psi are evaluated here."""
    psi, phi = psi_ledger.potential, phi_ledger.potential
    grid = psi.grid
    mid = relative_state(base, psi)
    rel = BasicPotential(values=phi.values - psi.values, grid=grid)
    f0_rel, f_rel = eval_F(rel, mid)
    back = BasicPotential(values=-psi.values, grid=grid)
    f0_back, f_back = eval_F(back, mid)
    return CocycleReport(
        cocycle_f0=psi_ledger.F0 + f0_rel - phi_ledger.F0,
        cocycle_f=psi_ledger.F + f_rel - phi_ledger.F,
        antisym_f0=psi_ledger.F0 + f0_back,
        antisym_f=psi_ledger.F + f_back,
    )


@dataclass(frozen=True)
class MabuchiReport:
    """The terms of the relation; K and F are read off the ledger."""

    h_base_mean: float   # int h_base dmu_base
    h_state_mean: float  # int h_phi dmu_phi
    residual: float
    inequality_slack: float


def verify_mabuchi_f_relation(ledger: FunctionalLedger, base: MetricState) -> MabuchiReport:
    """K = 2(m+1) F + 2 (int h dmu_base - int h_phi dmu_phi), and the
    lower bound K >= 2(m+1) F + 2 int h dmu_base, for the ledger's
    potential phi.

    The ledger must have been evaluated against ``base``: K, F and the
    ratio of base + phi are read off it, so the report applies no
    Laplacian and builds no state.  The inequality slack is
    -2 int h_phi dmu_phi, nonnegative because the normalization
    int e^{h_phi} dmu_phi = 1 forces the mean of h_phi to be nonpositive
    (Jensen).
    """
    phi, ratio = ledger.potential, ledger._ratio
    grid = phi.grid
    h_phi, _ = _ricci_potential(grid, ratio, base.potential.values + phi.values)
    h_base = float(grid.w @ (base.ratio * base.ricci_potential))
    h_state = float(grid.w @ (ratio * h_phi))
    residual = ledger.K - 2 * (M_DIM + 1) * ledger.F - 2 * (h_base - h_state)
    return MabuchiReport(
        h_base_mean=h_base,
        h_state_mean=h_state,
        residual=residual,
        inequality_slack=-2.0 * h_state,
    )


# ---------------------------------------------------------------------------
# sampling and the ledger
# ---------------------------------------------------------------------------


def random_potential(
    grid: Grid,
    rng: np.random.Generator,
    degree: int = 12,
    amplitude: float = 0.2,
    min_margin: float = 0.1,
) -> BasicPotential:
    """Seeded random potential: truncated Legendre series with decaying
    coefficients, rejection-sampled to admissibility margin >= min_margin."""
    for _ in range(200):
        coeffs = np.zeros(degree + 1)
        decay = 0.6 ** np.arange(degree + 1)
        coeffs[1:] = rng.normal(0.0, amplitude, degree) * decay[1:]
        phi = BasicPotential(values=grid.from_coeffs(coeffs), grid=grid)
        if admissibility(phi)[1] >= min_margin:
            return phi
    raise SolverError(
        f"no admissible sample with margin >= {min_margin} in 200 tries",
        trace=[],
    )


@dataclass(frozen=True, eq=False)
class FunctionalLedger:
    """All functional values of one potential against one base, in the
    shape the CSV report uses."""

    tag: str
    potential: BasicPotential
    I: float
    J: float
    F0: float
    F: float
    K: float
    osc: float
    margin: float
    # ratio of the base deformed by the potential, which
    # verify_mabuchi_f_relation reads
    _ratio: NDArray[np.float64] = field(repr=False)

    @classmethod
    def evaluate(
        cls, tag: str, phi: BasicPotential, base: MetricState
    ) -> "FunctionalLedger":
        # the one Laplacian phi keeps serves every functional, the ratio
        # at s = 1 is formed once for the margin and I, and J is computed
        # once and feeds F
        ray = _Ray(phi, base)
        margin = float(ray.ratio.min())
        j_val = ray.j_value()
        f0, f = ray.f_values(j_val)
        return cls(
            tag=tag,
            potential=phi,
            I=ray.i_value(),
            J=j_val,
            F0=f0,
            F=f,
            K=ray.k_energy(),
            osc=phi.osc(),
            margin=margin,
            _ratio=ray.ratio,
        )

    def row(self) -> tuple:
        return (self.tag, self.I, self.J, self.F0, self.F, self.K, self.osc, self.margin)
