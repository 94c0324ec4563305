"""Remainder norms, optimal-order scans, and normal-form bifurcations.

The truncated normal form leaves a remainder whose weighted norm estimates
how well the formal integral is conserved near a section point with
in-plane energy E - dE and transverse energy dE.  The norm is the monomial
l1 majorant: every term enters with the modulus of its coefficient times
the action powers, so terms that cancel on the torus still add up.
Scanning the norm over the normalization order r locates the optimal order
r_opt where the asymptotic series is best truncated; its scaling with dE
carries the power-law and exponentially-small signatures.

In the resonant mode the majorant overestimates the measured conservation
and runs the other way: at E = 0.2, dE = 1.25e-3 on the 2:1 form it grows
40x from r = 1 to r = 5 (4.5e-3, 9.3e-3, 1.8e-1), while the measured
relative variation of the resonant integral falls 1500x (4.0e-3, 9.3e-5,
2.6e-6).  The growth comes from detuning-graded terms of high
book-keeping order, low transverse degree and high I1 power.

The normal form also predicts where the equatorial orbit bifurcates: the
m1:m2 resonance occurs at the action where m2 * omega_1,eq = m1 * omega_2
holds between the series-derived frequencies.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateFitWarning,
    FlatMinimumWarning,
    MultipleRootsWarning,
    NoRootError,
    RangeError,
)
from .model import PreparedHamiltonian, Resonance, brentq, critical_energy
from .normform import equatorial_energy_series, extract_omega2_squared, normalize

__all__ = [
    "RemainderNormTable",
    "AsymptoticFit",
    "RemainderProfile",
    "capture_remainder_profile",
    "optimal_order_scan",
    "bifurcation_energy",
    "chaos_threshold_convergence",
    "DEFAULT_DELTA_E_GRID",
]

#: log-uniform dE grid, 1e-5 .. 1e-1 at 5 points per decade
DEFAULT_DELTA_E_GRID = tuple(float(v) for v in np.logspace(-5.0, -1.0, 21))

#: fits are restricted to dE at or below this threshold
FIT_DELTA_E_MAX = 1e-3

#: reference scale of the exponential law
DELTA_E_0 = 1e-3


def _aggregate_slice(poly, lo, hi):
    """Compress orders [lo, hi] of ``poly`` to norm inputs.

    The norm weight of a term depends only on (k1+l1)/2, k2, (k2+l2)/2 and
    its order, so terms are binned accordingly: returns arrays
    (s, d1, k2, d2, weight) with weight the summed |coefficient|.
    """
    k1, l1, k2, l2, s, coeffs = poly.restrict_bk(lo, hi).term_arrays()
    index = (s, (k1 + l1) // 2, k2, (k2 + l2) // 2)
    shape = tuple(int(e.max(initial=0)) + 1 for e in index)
    cells, inverse = np.unique(np.ravel_multi_index(index, shape), return_inverse=True)
    # an empty bincount comes out int64; the weights are float64 throughout
    weight = np.bincount(inverse, weights=np.abs(coeffs)).astype(np.float64)
    return (*np.unravel_index(cells, shape), weight)


class RemainderProfile:
    """Per-order remainder data captured during one normalization run.

    For each order r in 1..r_max the profile stores the aggregated terms
    of orders r+1..N of H^(r), which is what the norm of R^(r,N) sums.
    ``omega2sq`` maps the estimated action to the transverse frequency
    squared (a series in the nonresonant mode, the constant (omega2*)^2 in
    the resonant mode).
    """

    def __init__(self, omega_ref, omega2sq, N, slices):
        self.omega_ref = omega_ref
        self._omega2sq = omega2sq
        self.N = N
        self._slices = slices

    @property
    def orders(self):
        return sorted(self._slices)

    def norm(self, r, N, E, delta_E, beta=0.0):
        """Weighted norm of R^(r,N) at section parameters (E, dE, beta).

        The monomial l1 majorant: the sum over terms of
        |c| I^((k1+l1)/2) |beta|^k2 s^((k2+l2)/2), with I = (E - dE) /
        omega_ref and transverse spread s = 2 dE / (1 + beta^2 omega2^2 I).
        Phases are dropped, so terms that cancel on the torus still add
        up.  In the resonant mode the estimate is loose and grows with r
        where the measured conservation improves: at E = 0.2,
        dE = 1.25e-3 it reads 4.5e-3, 9.3e-3, 1.8e-1 at r = 1, 3, 5 against
        measured relative variations 4.0e-3, 9.3e-5, 2.6e-6.
        """
        if r not in self._slices:
            raise RangeError(f"order {r} not captured (have 1..{max(self._slices)})")
        if not r < N <= self.N:
            raise RangeError(f"need r < N <= {self.N}, got r={r}, N={N}")
        if not 0.0 <= delta_E < E:
            raise RangeError(f"need 0 <= delta_E < E, got delta_E={delta_E}, E={E}")
        s, d1, k2, d2, w = self._slices[r]
        action = (E - delta_E) / self.omega_ref
        spread = 2.0 * delta_E / (1.0 + beta**2 * self._omega2sq(action) * action)
        keep = s <= N
        terms = (
            w[keep]
            * action ** d1[keep]
            * float(abs(beta)) ** k2[keep]
            * spread ** d2[keep]
        )
        return float(terms.sum())


def _series_value(items, action):
    return sum(c * action**n for n, c in items)


def _constant_value(value, action):
    return value


def _power_series(series):
    """``{n: c}`` as the function I -> sum c I^n, summed in ascending n."""
    return functools.partial(_series_value, tuple(sorted(series.items())))


def _norm_scales(state):
    """(omega_ref, omega2sq) of the remainder norm of a normalized state.

    The action is measured in units of the in-plane frequency the form is
    built at; omega2sq is the series of the nonresonant normal form, or the
    constant (omega2*)^2 of the resonant one.
    """
    res = state.prepared.resonance
    if res is not None:
        return res.omega1, functools.partial(_constant_value, res.omega2**2)
    return state.prepared.omega10, _power_series(extract_omega2_squared(state))


def capture_remainder_profile(
    prepared: PreparedHamiltonian, N: int = 20
) -> RemainderProfile:
    """Normalize to order N-1 and capture every R^(r,N) along the way."""
    slices = {}

    def snap(r, ham):
        slices[r] = _aggregate_slice(ham, r + 1, N)

    state = normalize(prepared, r_max=N - 1, r_trunc=N, step_callback=snap)
    return RemainderProfile(*_norm_scales(state), N, slices)


@dataclass
class RemainderNormTable:
    """Norm curves r -> ||R^(r,N)|| per dE at the scan's (E, beta)."""

    rows: list = field(default_factory=list)  # (delta_E, r, N, norm)

    def curve(self, delta_E):
        """The r -> norm mapping for one dE value."""
        return {r: v for dE, r, _N, v in self.rows if dE == delta_E}


@dataclass(frozen=True)
class AsymptoticFit:
    """Optimal orders per dE and the two fitted scaling laws.

    ``alpha`` is the power-law exponent of r_opt ~ dE^(-alpha);
    ``d`` the stretched-exponent of ||R_opt|| ~ exp(-(dE0/dE)^d).  Both
    fits are least squares on log-transformed data over dE <= fit_max.
    """

    r_opt: dict
    optimal_norms: dict
    alpha: float
    alpha_rms: float
    d: float
    d_rms: float
    delta_E_0: float
    fit_max: float


def _log_fit(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    rms = float(np.sqrt(np.mean((np.polyval([slope, intercept], x) - y) ** 2)))
    return float(slope), rms


def optimal_order_scan(
    profile: RemainderProfile,
    E: float,
    beta: float = 0.0,
    delta_E_grid=DEFAULT_DELTA_E_GRID,
):
    """Locate r_opt per dE and fit the two asymptotic laws.

    Returns (RemainderNormTable, AsymptoticFit).  Emits
    FlatMinimumWarning when a minimum sits at the last captured order,
    i.e. the scan cannot certify it as interior.  When fewer than two
    distinct dE values lie at or below ``FIT_DELTA_E_MAX`` the laws cannot be
    fitted: the fit is None and DegenerateFitWarning is emitted.
    """
    N = profile.N
    table = RemainderNormTable()
    r_opt = {}
    optimal_norms = {}
    for dE in delta_E_grid:
        curve = {}
        for r in profile.orders:
            value = profile.norm(r, N, E, dE, beta)
            curve[r] = value
            table.rows.append((float(dE), int(r), int(N), float(value)))
        best = min(curve, key=curve.get)
        if best == max(profile.orders):
            warnings.warn(
                f"remainder minimum at the last scanned order r={best} "
                f"for delta_E={dE:g}; the optimum is not bracketed",
                FlatMinimumWarning,
                stacklevel=2,
            )
        r_opt[float(dE)] = int(best)
        optimal_norms[float(dE)] = float(curve[best])
    fit_dEs = sorted(dE for dE in r_opt if dE <= FIT_DELTA_E_MAX)
    if len(fit_dEs) < 2:
        warnings.warn(
            f"{len(fit_dEs)} delta_E value(s) at or below {FIT_DELTA_E_MAX:g}; "
            "the scaling laws need two, fit skipped",
            DegenerateFitWarning,
            stacklevel=2,
        )
        return table, None
    log_dE = np.log([dE for dE in fit_dEs])
    alpha_slope, alpha_rms = _log_fit(log_dE, np.log([r_opt[dE] for dE in fit_dEs]))
    d_slope, d_rms = _log_fit(
        log_dE, np.log(np.abs(np.log([optimal_norms[dE] for dE in fit_dEs])))
    )
    fit = AsymptoticFit(
        r_opt=r_opt,
        optimal_norms=optimal_norms,
        alpha=-alpha_slope,
        alpha_rms=alpha_rms,
        d=-d_slope,
        d_rms=d_rms,
        delta_E_0=DELTA_E_0,
        fit_max=FIT_DELTA_E_MAX,
    )
    return table, fit


#: the action ceiling's ladder 1e-3 * 1.05^k, formed by repeated
#: multiplication and long enough to pass 1e3
_CEILING_LADDER = np.cumprod(np.r_[1e-3, np.full(300, 1.05)])


def _action_ceiling(Z_eq, omega1_eq, e_crit):
    """Largest action the series can be trusted on: the first rung of the
    ladder where the equatorial energy reaches the escape threshold, the
    series turns over, or 1e3 is passed, whichever comes first."""
    I = _CEILING_LADDER
    # rungs past the ceiling may overflow; they only read as out of range
    with np.errstate(over="ignore", invalid="ignore"):
        trusted = (omega1_eq(I) > 0.0) & (Z_eq(I) < e_crit) & (I < 1e3)
    return float(I[np.argmin(trusted)])


def _solve_resonance(energy_series, omega2_series, m1, m2, e_crit):
    """The m1:m2 resonance on the series, located on a 512-point grid.

    The grid is evaluated as arrays; numpy's vector powers may differ from
    the scalar ones in the last bit, which can move a grid sign only where
    the detuning is within rounding of zero.  ``brentq`` and the returned
    values use the scalar ``detune``.
    """
    Z_eq = _power_series(energy_series)
    omega1_eq = _power_series({n - 1: n * c for n, c in energy_series.items()})
    omega2sq = _power_series(omega2_series)

    def detune(I):
        return m2 * omega1_eq(I) - m1 * math.sqrt(omega2sq(I))

    I_hi = _action_ceiling(Z_eq, omega1_eq, e_crit)
    grid = np.linspace(1e-6, I_hi, 512)
    w2 = omega2sq(grid)
    negative = np.flatnonzero(w2 < 0.0)
    if negative.size:
        i = int(negative[0])
        raise NoRootError(
            f"omega2^2 = {w2[i]:.6g} < 0 at I1 = {grid[i]:.6g} below the "
            f"action ceiling {I_hi:.4g}: no {m1}:{m2} resonance on this series"
        )
    values = m2 * omega1_eq(grid) - m1 * np.sqrt(w2)
    flips = np.nonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)[0]
    if flips.size == 0:
        raise NoRootError(
            f"no {m1}:{m2} resonance of the equatorial orbit for "
            f"I1 in [0, {I_hi:.4g}]"
        )
    if flips.size > 1:
        warnings.warn(
            f"{flips.size} sign changes of the {m1}:{m2} resonance "
            "condition; returning the smallest root",
            MultipleRootsWarning,
            stacklevel=3,
        )
    i = int(flips[0])
    I_star = brentq(detune, grid[i], grid[i + 1], xtol=1e-14)
    return Resonance(
        m1=int(m1),
        m2=int(m2),
        I1_star=float(I_star),
        omega1=float(omega1_eq(I_star)),
        omega2=float(math.sqrt(omega2sq(I_star))),
        energy=float(Z_eq(I_star)),
    )


def bifurcation_energy(state, m1: int, m2: int) -> Resonance:
    """Action, frequencies, and energy of the m1:m2 equatorial resonance.

    Solves m2 * omega_1,eq(I1) = m1 * omega_2(I1) on the series of a
    nonresonant state by bracketed root-finding over [0, I_max], with
    I_max set by the equatorial energy reaching the escape threshold.

    Raises
    ------
    NoRootError
        If the resonance condition has no sign change below I_max, or
        omega2^2 turns negative on the scan grid.
    """
    e_series = equatorial_energy_series(state)
    w_series = extract_omega2_squared(state)
    e_crit = critical_energy(state.prepared.potential)
    return _solve_resonance(e_series, w_series, m1, m2, e_crit)


def _truncated(series, n_max):
    return {n: c for n, c in series.items() if n <= n_max}


def chaos_threshold_convergence(state, orders, reference_energy=None):
    """1:1 transition estimate per normalization order.

    Reuses one deep nonresonant state: the normal-form coefficients of
    order s are final once s <= r, so the order-r estimate solves the
    series truncated to r.  Returns rows (r, energy, error) with error
    relative to ``reference_energy`` (None leaves it None).
    """
    e_series = equatorial_energy_series(state)
    w_series = extract_omega2_squared(state)
    e_crit = critical_energy(state.prepared.potential)
    rows = []
    for r in orders:
        if r > state.r:
            raise RangeError(f"state is normalized to r={state.r}, cannot report r={r}")
        result = _solve_resonance(
            _truncated(e_series, r + 1), _truncated(w_series, r), 1, 1, e_crit
        )
        error = None
        if reference_energy is not None:
            error = float(result.energy - reference_energy)
        rows.append((int(r), float(result.energy), error))
    return rows
