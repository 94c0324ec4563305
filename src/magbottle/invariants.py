"""Formal integrals in original variables and their section level sets.

The normalization produces a quantity conserved by the truncated normal
form in the transformed variables (i q1 p1 nonresonant, i(m1 q1 p1 +
m2 q2 p2) resonant).  Pulling it back through the inverse Lie transforms
and the complexification yields a polynomial Phi(rho, z, p_rho, p_z) that
is approximately conserved by the original flow.  Restricted to the
surface of section rho = 0, p_rho = +sqrt(2(E - V(0,z)) - p_z^2), its
level sets are the theoretical invariant curves.

On the section only the rho-free terms of Phi survive, and with
G = p_rho^2 = 2 (E - V(0, z)) - p_z^2 they read

    Phi_sect(z, p_z) = sum_m G^m sum_{a,b} C[m, a, b] z^a p_z^b.

The field over an n_z x n_pz grid is built from the power tables
Zpow[i, a] = z_i^a and PZpow[j, b] = pz_j^b: each F_m = Zpow C_m PZpow^T
is two small matrix products, and the sum over m runs by Horner's rule in
G, ((F_M G + F_{M-1}) G + ...) G + F_0.  V(0, z) is evaluated once per z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import section_seed_state
from .errors import NonRealIntegralError
from .model import PotentialSpec, Resonance, inverse_complexification, resolve_potential
from .normform import require_real
from .polyalg import CanonicalPolynomial, evaluate, lie_transform, substitute_pairs

__all__ = [
    "FormalIntegral",
    "GridSpec",
    "SectionLevelSet",
    "LevelComponent",
    "back_transform",
    "section_levels",
    "level_set_components",
]

#: imaginary residue allowed on back-transformed coefficients, relative to
#: the largest coefficient magnitude (absolute below magnitude one)
IMAG_TOL = 1e-11


@dataclass(frozen=True)
class FormalIntegral:
    """Truncated integral series expressed in (rho, z, p_rho, p_z).

    ``poly`` reuses the four exponent slots as (rho, p_rho, z, p_z); all
    coefficients are real.  ``order`` is the normalization order the
    series was pulled back from, and ``resonance`` that of its normal form
    (None for the nonresonant one).
    """

    poly: CanonicalPolynomial
    order: int
    resonance: Resonance | None = None

    def evaluate(self, rho, z, p_rho, p_z):
        """Value of the integral at phase-space points (broadcasting)."""
        values = evaluate(self.poly, rho, p_rho, z, p_z)
        return float(values.real) if np.isscalar(values) else values.real


@dataclass(frozen=True)
class GridSpec:
    """Rectangular (z, p_z) evaluation grid for the surface of section."""

    z_min: float
    z_max: float
    pz_min: float
    pz_max: float
    n_z: int = 400
    n_pz: int = 400

    @classmethod
    def from_energy(cls, E: float, n: int = 400) -> "GridSpec":
        """Box sized to the section's accessible momenta at energy E.

        |p_z| is bounded by sqrt(2E) on the section; the z extent has no
        such hard bound (the potential vanishes on the axis), so the box
        is padded to a few momentum widths, which covers the bounded
        orbits at the energies of interest.
        """
        pz_b = 1.02 * math.sqrt(2.0 * E)
        z_b = 2.4 * math.sqrt(2.0 * E)
        return cls(-z_b, z_b, -pz_b, pz_b, n, n)

    def axes(self):
        return (
            np.linspace(self.z_min, self.z_max, self.n_z),
            np.linspace(self.pz_min, self.pz_max, self.n_pz),
        )


@dataclass(frozen=True)
class SectionLevelSet:
    """Scalar field Phi_sect over one grid plus one seed's contour level.

    ``values[i, j]`` is the field at (z_axis[i], pz_axis[j]); points with
    ``valid[i, j]`` False lie outside the energetically allowed region and
    hold NaN.
    """

    energy: float
    seed: tuple
    level: float
    z_axis: np.ndarray
    pz_axis: np.ndarray
    values: np.ndarray
    valid: np.ndarray


@dataclass(frozen=True)
class LevelComponent:
    """One connected component of a discretized level set."""

    size: int
    encircles_center: bool


def back_transform(state) -> FormalIntegral:
    """Pull the conserved seed of the normal form to original variables.

    Applies ``exp(-L_chi_1) o ... o exp(-L_chi_r)`` (innermost first) to
    the conserved quadratic, truncated at book-keeping order r, and
    substitutes the inverse complexification of each complexified pair.
    Coefficients must come out real up to the arithmetic noise floor.

    Each generator is first checked once against its conjugate, as
    :func:`normalize` checks the prepared Hamiltonian; the pullback then
    forms one product per complex pair of each bracket, as the
    normalization does. The conjugate-product bracket returns a real
    result whether its factors are real or not, so the check must come
    first: it is what finds a corrupted generator.

    Raises
    ------
    ModeError
        If the state was normalized under a transverse cap: the pullback
        reads every transverse degree of the generators.
    NonRealIntegralError
        If a generator differs from its conjugate by more than
        ``REALITY_TOL`` of its largest coefficient, or a substituted
        coefficient keeps an imaginary part above the tolerance (a
        transform defect, not a data problem).
    """
    state.require_full("back_transform")
    prepared = state.prepared
    pairs = prepared.complex_pairs
    for s, chi in enumerate(state.generators, 1):
        require_real(chi, pairs, NonRealIntegralError, f"generator chi_{s}")
    res = prepared.resonance
    if res is not None:
        seed = [((1, 1, 0, 0), 1j * res.m1, 0), ((0, 0, 1, 1), 1j * res.m2, 0)]
        transverse = inverse_complexification(res.omega2)
    else:
        seed = [((1, 1, 0, 0), 1j, 0)]
        transverse = None
    phi = CanonicalPolynomial.from_terms(seed, trunc_order=state.r)
    for chi in reversed(state.generators):
        phi = lie_transform(phi, chi, inverse=True, complex_pairs=pairs)
    maps = (inverse_complexification(prepared.omega10), transverse)
    real_phi = substitute_pairs(phi, maps)
    *exponents, _bk, coeffs = real_phi.term_arrays()
    floor = IMAG_TOL * max(1.0, real_phi.max_abs())
    bad = np.flatnonzero(np.abs(coeffs.imag) >= floor)
    if bad.size:
        i = bad[0]
        raise NonRealIntegralError(
            f"coefficient of {tuple(int(e[i]) for e in exponents)} has "
            f"imaginary part {coeffs.imag[i]:.3e}"
        )
    return FormalIntegral(poly=real_phi.real_part(), order=state.r, resonance=res)


def _section_table(integral: FormalIntegral):
    """C[m, a, b], the coefficient of p_rho^(2m) z^a p_z^b in Phi_sect.

    Only rho-free monomials survive on the section, and those carry even
    p_rho powers for the admissible (reflection-symmetric) models.  The
    entries of one monomial at several book-keeping orders are summed in
    ascending order.  An integral without rho-free terms gives a 1x1x1
    zero table.
    """
    k1, l1, k2, l2, _, coeffs = integral.poly.term_arrays()
    on = k1 == 0
    if np.any(l1[on] % 2):
        raise ValueError(
            "integral has odd p_rho powers on the section; the model "
            "lacks the assumed reflection symmetry"
        )
    index = (l1[on] // 2, k2[on], l2[on])
    shape = tuple(int(e.max(initial=0)) + 1 for e in index)
    cells = np.ravel_multi_index(index, shape)
    table = np.bincount(cells, weights=coeffs.real[on], minlength=math.prod(shape))
    return table.reshape(shape)


def _section_field(integral, E, z_vals, pz_vals, potential):
    """Evaluate Phi_sect on the meshgrid of the given axes.

    With G = p_rho^2 = 2 (E - V(0, z)) - p_z^2, the field is
    sum_m F_m G^m, where F_m = Zpow C_m PZpow^T holds the z^a p_z^b part
    of the p_rho^(2m) coefficient (Zpow[i, a] = z_i^a, PZpow[j, b] =
    pz_j^b).  The sum runs by Horner's rule in G, so the cost is two small
    matrix products per power of G, not one grid pass per term.
    """
    table = _section_table(integral)
    radicand = (
        2.0 * (E - potential.value(0.0, z_vals))[:, None] - pz_vals[None, :] ** 2
    )
    valid = radicand > 0.0
    G = np.where(valid, radicand, 0.0)
    z_pow = np.vander(z_vals, table.shape[1], increasing=True)
    pz_pow = np.vander(pz_vals, table.shape[2], increasing=True)
    values = np.zeros_like(G)
    for c_m in table[::-1]:
        values = values * G + z_pow @ c_m @ pz_pow.T
    values[~valid] = np.nan
    return values, valid


def section_levels(
    integral: FormalIntegral,
    E: float,
    seeds,
    grid: GridSpec | None = None,
    potential: PotentialSpec | None = None,
) -> list:
    """Level sets of the section-restricted integral at energy E.

    For each seed (z0, pz0) the contour level is the integral's value at
    the lifted point; the field itself is shared across seeds.

    Raises
    ------
    SeedOutsideCZVError
        For seeds outside the energetically allowed section domain.
    """
    V = resolve_potential(potential)
    box = GridSpec.from_energy(E) if grid is None else grid
    z_vals, pz_vals = box.axes()
    values, valid = _section_field(integral, E, z_vals, pz_vals, V)
    out = []
    for z0, pz0 in seeds:
        lifted = section_seed_state(z0, pz0, E, V)
        level = float(integral.evaluate(0.0, z0, lifted.p_rho, pz0))
        out.append(
            SectionLevelSet(
                energy=E,
                seed=(float(z0), float(pz0)),
                level=level,
                z_axis=z_vals,
                pz_axis=pz_vals,
                values=values,
                valid=valid,
            )
        )
    return out


def _label8(mask):
    """The 8-connected components of a boolean grid, by flood fill.

    Returns one ``(rows, cols)`` pair of index arrays per component, its
    cells in raster order, and the components in raster order of their
    first cells: the numbering of ``ndimage.label`` with a 3x3 structure.
    """
    padded = np.pad(mask, 1)  # a False border: no neighbour wraps a row
    width = padded.shape[1]
    steps = (-width - 1, -width, -width + 1, -1, 1, width - 1, width, width + 1)
    cells = np.flatnonzero(padded).tolist()
    unseen = set(cells)
    components = []
    for first in cells:
        if first not in unseen:
            continue
        unseen.remove(first)
        stack, members = [first], []
        while stack:
            cell = stack.pop()
            members.append(cell)
            for step in steps:
                if cell + step in unseen:
                    unseen.remove(cell + step)
                    stack.append(cell + step)
        rows, cols = np.divmod(np.sort(members), width)
        components.append((rows - 1, cols - 1))
    return components


def level_set_components(level_set: SectionLevelSet) -> list:
    """Connected components of the discretized contour Phi_sect = level.

    Grid cells where the sign of (Phi_sect - level) changes between valid
    neighbors are marked and labeled with 8-connectivity.  A component
    counts as encircling the center when its pixel angles leave no gap of
    a quarter turn or more around the section's central fixed point; the
    non-encircling components are the resonance islands.
    """
    F = level_set.values - level_set.level
    sign = np.sign(F)
    v = level_set.valid
    mask = np.zeros(F.shape, dtype=bool)
    flip_z = v[:-1, :] & v[1:, :] & (sign[:-1, :] * sign[1:, :] <= 0.0)
    flip_pz = v[:, :-1] & v[:, 1:] & (sign[:, :-1] * sign[:, 1:] <= 0.0)
    mask[:-1, :] |= flip_z
    mask[1:, :] |= flip_z
    mask[:, :-1] |= flip_pz
    mask[:, 1:] |= flip_pz
    components = []
    for iz, ipz in _label8(mask):
        z = level_set.z_axis[iz]
        pz = level_set.pz_axis[ipz]
        keep = np.hypot(z, pz) > 1e-9
        angles = np.sort(np.arctan2(pz[keep], z[keep]))
        if angles.size >= 8:
            gaps = np.diff(angles)
            wrap = angles[0] + 2.0 * math.pi - angles[-1]
            encircles = max(gaps.max(), wrap) < math.pi / 2.0
        else:
            encircles = False
        components.append(LevelComponent(size=int(iz.size), encircles_center=encircles))
    return components
