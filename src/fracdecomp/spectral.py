"""Closed-form spectral data for the clique-pair operator of the host.

M denotes the |E| x |E| matrix whose (e, e') entry counts the K_s copies of
the complete host containing both edges. It lies in the scheme algebra, so
its eigenvalues, inverse, and infinity norms all have exact rational closed
forms; the shifted variant M + eta E_2 restores invertibility when r = s+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .graph_core import GraphError, binom
from .scheme import (
    EdgeVector,
    NUM_CLASSES,
    SchemeElement,
    apply_scheme_element,
    eigenmatrices,
)


def mgamma_element(r: int, s: int, n: int) -> SchemeElement:
    """The host clique-pair operator in the A-basis.

    Coefficients C(r-2,s-2) n^(s-2) on A_0, C(r-3,s-3) n^(s-3) on A_3, and
    C(r-4,s-4) n^(s-4) on A_5 (zero binomials make this uniform in r).
    """
    if s < 3 or r < s:
        raise GraphError(f"need r >= s >= 3, got r={r}, s={s}")
    a0 = Fraction(binom(r - 2, s - 2) * n ** (s - 2))
    a3 = Fraction(binom(r - 3, s - 3) * n ** (s - 3))
    a5 = Fraction(binom(r - 4, s - 4) * n ** (s - 4))
    z = Fraction(0)
    return SchemeElement(basis="A", coeffs=(a0, z, z, a3, z, a5))


def eta_star(s: int, n: int) -> Fraction:
    """The canonical rank-correcting shift n^(s-2) s/(s+2) for r = s+1."""
    return Fraction(n ** (s - 2) * s, s + 2)


@dataclass(frozen=True)
class SpectrumTable:
    """Six eigenvalues with multiplicities; eta is the shift if one was applied."""

    eigenvalues: tuple  # Fractions
    multiplicities: tuple  # ints
    eta: Fraction | None = None

    @property
    def floats(self) -> np.ndarray:
        return np.array([float(x) for x in self.eigenvalues])

    @property
    def invertible(self) -> bool:
        return all(x != 0 for x in self.eigenvalues)


def spectrum(r: int, s: int, n: int, eta=None) -> SpectrumTable:
    """Eigenvalues/multiplicities of the host operator (optionally eta-shifted).

    Base eigenvalues are C(r-2,s-2) n^(s-2) times
    { s(s-1)/2, (r-s)(s-1)/(r-2), (r-s-1)(r-s)/((r-2)(r-3)),
      s-1, (r-s)/(r-2), 1 };
    multiplicities are
    { 1, r-1, r(r-3)/2, r(n-1), r(r-2)(n-1), C(r,2)(n-1)^2 }.
    With an eta shift (r = s+1 only) the zero eigenvalue becomes eta.
    """
    if not 3 <= s < r:
        raise GraphError(f"spectrum needs 3 <= s < r, got r={r}, s={s}")
    base = Fraction(binom(r - 2, s - 2) * n ** (s - 2))
    lam = [
        base * Fraction(s * (s - 1), 2),
        base * Fraction((r - s) * (s - 1), r - 2),
        base * Fraction((r - s - 1) * (r - s), (r - 2) * (r - 3)),
        base * (s - 1),
        base * Fraction(r - s, r - 2),
        base,
    ]
    if eta is not None:
        if r != s + 1:
            raise GraphError("eta shift only applies when r = s+1")
        eta = Fraction(eta)
        lam[2] = eta
    mult = (1, r - 1, r * (r - 3) // 2, r * (n - 1),
            r * (r - 2) * (n - 1), binom(r, 2) * (n - 1) ** 2)
    return SpectrumTable(eigenvalues=tuple(lam), multiplicities=mult, eta=eta)


def _a_basis(r: int, n: int, eigenvalues) -> SchemeElement:
    """The element sum_i eigenvalues[i] E_i in the A-basis, exactly."""
    em = eigenmatrices(r, n)
    return SchemeElement(basis="A", coeffs=tuple(
        sum(eigenvalues[i] * em.D[i][j] for i in range(NUM_CLASSES))
        for j in range(NUM_CLASSES)))


@lru_cache(maxsize=64)
def _host_element(r: int, s: int, n: int, eta) -> SchemeElement:
    """The host operator, plus eta E_2 when eta is given, in the A-basis.

    The spectral sum of the eigenvalues; without eta it equals
    `mgamma_element` exactly. Cached like `_inverse_element`.
    """
    return _a_basis(r, n, spectrum(r, s, n, eta=eta).eigenvalues)


@lru_cache(maxsize=64)
def _inverse_element(r: int, s: int, n: int, eta) -> SchemeElement:
    """The inverse of the host operator (plus eta E_2) in the A-basis.

    Cached because every Minv apply of a solve needs it, and deriving the
    six coefficients in exact arithmetic costs more than the apply itself.
    The key leaves out the eigenmatrices: they are a function of (r, n),
    and hashing their 72 Fractions on every apply would cost about 50 us.
    """
    tab = spectrum(r, s, n, eta=eta)
    if not tab.invertible:
        raise GraphError(
            "operator is singular (r = s+1 needs a positive eta shift)")
    return _a_basis(r, n, [1 / lam for lam in tab.eigenvalues])


@lru_cache(maxsize=64)
def _shift_element(r: int, n: int, eta) -> SchemeElement:
    """eta E_2 in the A-basis, each coefficient the exact product rounded
    to a float once. Cached like `_host_element`, so that an apply converts
    no Fraction."""
    em = eigenmatrices(r, n)
    return SchemeElement(basis="A", coeffs=tuple(float(eta * d) for d in em.D[2]))


def apply_eta_shift(vec: EdgeVector, eta) -> np.ndarray:
    """eta E_2 applied to the vector, E_2 being the idempotent that the eta
    shift of the host operator (r = s+1) adds."""
    st = vec.edges.structure
    return apply_scheme_element(_shift_element(st.r, st.n, eta), vec)


def apply_mgamma(vec: EdgeVector, eta=None) -> np.ndarray:
    """M applied to the vector, plus eta E_2 when eta is given (r = s+1 only)."""
    st = vec.edges.structure
    return apply_scheme_element(_host_element(st.r, st.s, st.n, eta), vec)


def apply_mgamma_inverse(vec: EdgeVector, eta=None) -> np.ndarray:
    """The inverse of M (plus eta E_2 when eta is given) applied to the vector."""
    st = vec.edges.structure
    return apply_scheme_element(_inverse_element(st.r, st.s, st.n, eta), vec)


def norm_mgamma_inverse(r: int, s: int, n: int) -> Fraction:
    """Exact infinity norm of the inverse host operator, r >= s+2."""
    if r < s + 2:
        raise GraphError(f"closed form needs r >= s+2, got r={r}, s={s}")
    num = 2 * (r * r * (2 * s * s - 4 * s + 1)
               - r * (12 * s * s - 26 * s + 9)
               + (17 * s * s - 39 * s + 16))
    den = s * (s - 1) * (r - 2) * (r - s - 1) * binom(r - 3, s - 2) * n ** (s - 2)
    return Fraction(num, den)


def norm_mgamma_eta_inverse(s: int, n: int) -> Fraction:
    """Exact infinity norm of the inverse of the eta*-shifted operator, r = s+1."""
    if s < 3:
        raise GraphError(f"s={s} out of range")
    inner = ((3 * s**3 - 11 * s**2 + 12 * s - 3) * n * n
             - 2 * (s - 1) * (s - 2) ** 2 * n
             + (s - 1) * (s - 2) ** 2)
    return Fraction(2 * inner, s * (s - 1) ** 2 * n ** s)


def norm_delta_bound(r: int, s: int, n: int, c) -> Fraction:
    """Upper bound on the infinity norm of the defect operator at degree slack c."""
    if r < s + 1:
        raise GraphError(f"bound needs r >= s+1, got r={r}, s={s}")
    c = Fraction(c)
    if not 0 <= c <= 1:
        raise GraphError(f"degree slack c={c} outside [0, 1]")
    return (c * s * (s - 1) * (s + 1) * (r - 2)
            * binom(r - 3, s - 3) * n ** (s - 2) / 4)


def norm_e2_block_bound(s: int, c) -> Fraction:
    """Upper bound on the infinity norm of the E_2 block between E(G) and its complement."""
    c = Fraction(c)
    return Fraction(4 * (s - 2), s) * c


def norm_delta_eta_bound(s: int, n: int, c, eta) -> Fraction:
    """Upper bound on the infinity norm of the eta-shifted defect operator, r = s+1."""
    c = Fraction(c)
    eta = Fraction(eta)
    return (norm_delta_bound(s + 1, s, n, c)
            + eta * norm_e2_block_bound(s, c))
