"""Transverse curvature algebra at constant holomorphic sectional curvature.

For general transverse dimension m the module works at the round model,
where the curvature tensor in an orthonormal frame is

    R_{i jbar k lbar} = (c/2) (g_{i jbar} g_{k lbar} + g_{i lbar} g_{k jbar}),

and every scalar invariant has a closed form.  The contractions are also
computed by brute-force index loops with no symmetry shortcuts, so the
loops act as the oracle for the closed forms rather than the other way
around.

Norm convention (the literature varies): all tensor norms here are
orthonormal-frame sums of squared components.  This is the convention
under which the trace chain closes at the round model,
S^2 - |rho|^2 = 4 m (m-1) (m+1)^2, which is what the characteristic-
class integrand below requires.

At m = 1 the curvature tensor has a single component equal to the
quotient Gauss curvature, so |Rm|^2 = (S^T)^2 pointwise and the traceless
part Q vanishes identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "RoundCurvatureModel",
    "CharacteristicIntegrandReport",
    "round_tensor_contractions",
    "verify_round_characteristic_integrand",
    "calabi_bound",
]

MAX_DIMENSION = 16  # the brute-force loops visit m^4 components
# the largest sectional curvature constant: at m = MAX_DIMENSION the
# largest square, S^2 = c^2 m^2 (m+1)^2 / 4, is 1.8e304 at c = 1e150 and
# overflows from c near 1e152
MAX_CURVATURE = 1e150
# the largest pinching eps: at m = MAX_DIMENSION the Calabi bound's
# (2m)^2 eps^2 is 1.0e303 at eps = 1e150 and overflows from eps near 1e152
MAX_EPS = 1e150

NORM_CONVENTION = (
    "orthonormal-frame sum of squared components; fixed by requiring the "
    "round-model trace chain S^2 - |rho|^2 = 4 m (m-1) (m+1)^2"
)


@dataclass(frozen=True)
class RoundCurvatureModel:
    m: int
    c: float
    scalar: float       # S^T
    ricci_norm_sq: float   # |rho^T|^2
    riemann_norm_sq: float  # |Rm^T|^2
    q_norm_sq: float        # |Q|^2
    convention: str = NORM_CONVENTION

    @property
    def scalar_closed_form(self) -> float:
        return 0.5 * self.c * self.m * (self.m + 1)

    @property
    def riemann_closed_form(self) -> float:
        return 0.5 * self.c**2 * self.m * (self.m + 1)


def round_tensor_contractions(m: int, c: float) -> RoundCurvatureModel:
    """Brute-force contractions of the constant-curvature tensor.

    Explicit quadruple loops on purpose: this is the oracle the closed
    forms are checked against, so it must not share their algebra.  An m
    outside [1, MAX_DIMENSION] or a c outside (0, MAX_CURVATURE] (NaN
    and inf included) raises ConfigurationError.
    """
    if not 1 <= m <= MAX_DIMENSION:
        raise ConfigurationError(f"transverse dimension must lie in [1, {MAX_DIMENSION}], got {m}")
    if not (0 < c <= MAX_CURVATURE):
        raise ConfigurationError(
            f"sectional curvature constant must lie in (0, {MAX_CURVATURE:g}], got {c}"
        )
    g = np.eye(m)
    r = np.zeros((m, m, m, m))
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for l in range(m):
                    r[i, j, k, l] = 0.5 * c * (g[i, j] * g[k, l] + g[i, l] * g[k, j])

    # math.fsum keeps the accumulations exactly rounded; the identity
    # checks downstream run at absolute tolerances near machine epsilon
    # and must not eat summation noise from the quadruple loops.
    scalar = math.fsum(r[i, i, k, k] for i in range(m) for k in range(m))

    rho = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            rho[i, j] = math.fsum(r[i, j, k, k] for k in range(m))
    rho_sq = math.fsum(v**2 for v in rho.ravel())

    rm_sq = math.fsum(v**2 for v in r.ravel())

    lam = scalar / (m * (m + 1))
    q_sq = math.fsum(
        (r[i, j, k, l] - lam * (g[i, j] * g[k, l] + g[i, l] * g[k, j])) ** 2
        for i in range(m)
        for j in range(m)
        for k in range(m)
        for l in range(m)
    )

    return RoundCurvatureModel(
        m=m,
        c=float(c),
        scalar=float(scalar),
        ricci_norm_sq=rho_sq,
        riemann_norm_sq=float(rm_sq),
        q_norm_sq=float(q_sq),
    )


@dataclass(frozen=True)
class CharacteristicIntegrandReport:
    m: int
    c: float
    integrand: float
    sign: int
    model: RoundCurvatureModel


def verify_round_characteristic_integrand(
    m: int, c: float = 4.0
) -> CharacteristicIntegrandReport:
    """Pointwise integrand of the basic characteristic combination
    2 c_2 - (m/(m+1)) c_1^2 wedged down to top degree, evaluated on the
    constant-curvature model:

        |Rm|^2 - 2 S^2 / (m(m+1))
               - ((m-1)(m+2)/(m(m+1))) (S^2 - (2m(m+1))^2).

    Zero at c = 4 (both the traceless part and the pinching term vanish);
    for perturbed c only the pinching term survives and the sign is
    reported.  The wedge power degenerates below m = 2.
    """
    if m < 2:
        raise ConfigurationError(f"the characteristic integrand needs m >= 2, got {m}")
    model = round_tensor_contractions(m, c)
    s = model.scalar
    pinch = s**2 - (2 * m * (m + 1)) ** 2
    integrand = (
        model.riemann_norm_sq
        - 2.0 * s**2 / (m * (m + 1))
        - (m - 1) * (m + 2) / (m * (m + 1)) * pinch
    )
    return CharacteristicIntegrandReport(
        m=m, c=float(c), integrand=float(integrand),
        sign=int(np.sign(integrand)) if abs(integrand) > 1e-12 else 0,
        model=model,
    )


def calabi_bound(eps: float, m: int = 1) -> float:
    """Upper bound 2 (2m)^2 (m+1) eps + (2m)^2 eps^2 that an |S^T - 2m(m+1)|
    <= eps structure forces on the Calabi functional (per unit volume).
    An eps outside (0, MAX_EPS] (NaN and inf included) or an m outside
    [1, MAX_DIMENSION] raises ConfigurationError."""
    if not (0.0 < eps <= MAX_EPS):
        raise ConfigurationError(f"eps must lie in (0, {MAX_EPS:g}], got {eps}")
    if not 1 <= m <= MAX_DIMENSION:
        raise ConfigurationError(f"transverse dimension must lie in [1, {MAX_DIMENSION}], got {m}")
    return 2.0 * (2 * m) ** 2 * (m + 1) * eps + (2 * m) ** 2 * eps**2
