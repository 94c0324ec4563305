"""Orbit integration, Poincare sections, and central-orbit stability.

The equations of motion follow from H = (p_rho^2 + p_z^2)/2 + V(rho, z) on
the meridian plane, with (rho, z) treated as Cartesian-like coordinates (the
admissible potentials are even in rho, so orbits pass smoothly through the
axis).  The surface of section is rho = 0 with p_rho > 0.

The central (equatorial) periodic orbit lives in the invariant plane
z = p_z = 0.  Its linear stability in the transverse direction is governed
by delta-z'' = -d2V/dz2(rho(t), 0) delta-z; the coefficient is even in rho
and therefore repeats with the half period, so the monodromy matrix over a
full period is the square of the half-period variational matrix.  A
quarter period already fixes that matrix:

1. Time reversal with rho -> -rho fixes the axis crossing (0, p_rho) at
   T/4 of the orbit started at (rho_max, 0): rho(T/4 + s) = -rho(T/4 - s).
2. The curvature, even in rho, is then symmetric about T/4, so the flow
   from T/4 to T/2 is S M_q^-1 S with S = diag(1, -1), and for
   M_q = [[a, b], [c, d]], M_half = [[ad+bc, 2bd], [2ac, ad+bc]].
3. det M_half = (ad-bc)^2 = det(M_q)^2, and Tr M_half = 2(ad+bc).

Sections and the monodromy run one DOP853 loop on Python floats,
:func:`_dop853`, which steps as ``scipy.integrate.DOP853`` does (the same
initial step, error norm and controller, and the same tableau, written
here as literal coefficients that a test pins to scipy's) and hands each
accepted step to a stop test.  A step that crosses a surface y_k = const
(the section rho = 0, the quarter turn, an escape bound) goes to :func:`_hit`,
Henon's trick (M. Henon, Physica D 5 (1982) 412): with y_k as the
independent variable, d/dy_k = f/f_k, the integration ends on the surface
exactly, so no dense output, root finder or Newton polish is needed.
:func:`integrate` runs the same loop and lands each sample time inside
an accepted step with one side step from the step's start, so the
samples leave the step sequence as it is.
The trial step is straight-line source compiled once per state size,
:func:`_trial_for`, so the 12 right-hand-side calls of a step are most of
its cost.  On the E = 0.1 orbit from the section point (0.3, 0), 1,464 steps
to T = 160, a 2-core x86 host took 26-37 us per step of this loop (best of
7, three runs) and 96-139 us per step of scipy's initial-value driver
without events; a right-hand-side call costs 1.3 us on floats.
``scipy.integrate.ode("dop853")`` runs a compiled loop, but with scipy
1.17.1 it leaks 64 B per ``set_initial_value`` and about 1.1 KB per
instance (tracemalloc), and every orbit would need one of either.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EscapeDetected,
    IncompleteSectionError,
    NoBifurcationInRange,
    SeedOutsideCZVError,
)
from .model import (
    PotentialSpec,
    brentq,
    critical_energy,
    equatorial_roots,
    resolve_potential,
)

__all__ = [
    "OrbitState",
    "Trajectory",
    "SectionSet",
    "MonodromyResult",
    "integrate",
    "poincare_section",
    "central_orbit_monodromy",
    "numerical_bifurcation_energy",
    "equatorial_turning_point",
]

#: orbits beyond this |rho| or |z| count as escaped
ESCAPE_BOUND = 20.0

#: default integrator tolerance; the DOP853 relative tolerance is tol/10 and
#: the absolute tolerance tol/1000, calibrated so a tol of 1e-12 keeps the
#: relative energy drift below 1e-10 over 1e4 time units
DEFAULT_TOL = 1e-12
_RTOL_FACTOR = 0.1
_ATOL_FACTOR = 1e-3

#: integration time budgeted per section crossing; one in-plane revolution
#: takes a few time units, and a section seed gets
#: SECTION_TIME_PER_CROSSING * (n_crossings + 2)
SECTION_TIME_PER_CROSSING = 12.0

#: energy tolerance of the bisection in :func:`numerical_bifurcation_energy`
_BIFURCATION_XTOL = 1e-10

#: energy interval that :func:`numerical_bifurcation_energy` scans, on a
#: 34-point grid, for the first sign change of the trace condition
_BIFURCATION_BRACKET = (1e-3, 0.55)


@dataclass(frozen=True)
class OrbitState:
    """Phase-space point (rho, z, p_rho, p_z) at time t."""

    rho: float
    z: float
    p_rho: float
    p_z: float
    t: float = 0.0

    def as_array(self):
        return np.array([self.rho, self.z, self.p_rho, self.p_z])

    def energy(self, potential: PotentialSpec | None = None) -> float:
        V = resolve_potential(potential)
        return 0.5 * (self.p_rho**2 + self.p_z**2) + V.value(self.rho, self.z)


@dataclass
class Trajectory:
    """Sampled orbit.

    ``states`` has one row per sample, columns (rho, z, p_rho, p_z).
    """

    times: np.ndarray
    states: np.ndarray
    potential: PotentialSpec

    def energies(self):
        rho, z, prho, pz = self.states.T
        return 0.5 * (prho**2 + pz**2) + self.potential.value(rho, z)

    @property
    def final_state(self) -> OrbitState:
        rho, z, prho, pz = self.states[-1]
        return OrbitState(rho, z, prho, pz, t=float(self.times[-1]))


@dataclass
class SectionSet:
    """Crossings of the rho = 0, p_rho > 0 surface of section.

    ``points`` has one row per crossing: (seed_index, z, p_z, t).
    """

    energy: float
    points: np.ndarray
    n_seeds: int

    def for_seed(self, index):
        rows = self.points[self.points[:, 0] == index]
        return rows[:, 1:3]


@dataclass
class MonodromyResult:
    """Linear stability of the central periodic orbit at one energy."""

    energy: float
    period: float
    matrix: np.ndarray
    half_matrix: np.ndarray = field(repr=False, default=None)
    #: right-hand-side evaluations of the integration, the surface hit included
    n_rhs: int = 0

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))

    @property
    def determinant(self) -> float:
        return float(np.linalg.det(self.matrix))

    @property
    def stable(self) -> bool:
        return abs(self.trace) < 2.0


def _rhs_factory(potential: PotentialSpec):
    """Plain-float equations of motion, specialized to the potential."""
    # flat (a, b, c) tuples: the loops below run once per integrator stage
    rho_terms = [
        (a, b, c) for (a, b), c in potential.derivative(1, 0).as_dict().items()
    ]
    z_terms = [
        (a, b, c) for (a, b), c in potential.derivative(0, 1).as_dict().items()
    ]

    def rhs(_t, y):
        rho, z, prho, pz = y
        frho = 0.0
        for a, b, c in rho_terms:
            frho += c * rho**a * z**b
        fz = 0.0
        for a, b, c in z_terms:
            fz += c * rho**a * z**b
        return (prho, pz, -frho, -fz)

    return rhs


# The DOP853 tableau (Hairer, Norsett & Wanner, Sec. II.5) of its 12 stages:
# the nodes C, the rows A[s, :s], the 8th-order weights B and the weights of
# the 3rd- and 5th-order error estimates.  tests/test_dynamics.py pins every
# float to scipy.integrate.DOP853, whose E3 and E5 also weight the derivative
# at the new state, by 0.
_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
)
_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (
        0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
        -0.015319437748624402, 0.008273789163814023,
    ),
    (
        0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
        27.59209969944671, 20.154067550477894, -43.48988418106996,
    ),
    (
        0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
        21.230051448181193, 15.279233632882423, -33.28821096898486,
        -0.020331201708508627,
    ),
    (
        -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
        -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
        -3.0467644718982196,
    ),
    (
        2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
        -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
        12.360567175794303, 0.6433927460157636,
    ),
)
_B = (
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259,
)
_E3 = (
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082,
)
_E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294,
)
_ERROR_ESTIMATOR_ORDER = 7
_ERROR_EXPONENT = -1.0 / (_ERROR_ESTIMATOR_ORDER + 1)


def _dot(coefficients, component, start=""):
    """Source of the sum of ``coefficients[j] * k{j}_{component}`` over the
    nonzero coefficients, added left to right after ``start``."""
    return start + " + ".join(
        f"{c!r} * k{j}_{component}" for j, c in enumerate(coefficients) if c
    )


@functools.lru_cache(maxsize=None)
def _trial_for(n):
    """The DOP853 trial step for states of ``n`` components.

    ``trial(fun, t, y, f, h)`` returns ``(y_new, err5, err3)``: the 8th-order
    solution at ``t + h`` as a list, and the 5th- and 3rd-order error
    estimates of each component.  It is straight-line source built from
    the literal coefficients ``_A``, ``_B``, ``_C``, ``_E3`` and ``_E5``,
    which a test pins to ``scipy.integrate.DOP853``'s: every tableau entry
    is a literal, every state component and stage derivative a local, and
    the zero entries are left out.  Each sum adds its products left to
    right after a leading 0.0, as ``sum`` adds the products of a tableau
    row up to Python 3.11, so the step forms the floats of a loop over the
    tableau, the sign of a zero included, as long as the stage derivatives
    are finite.  The error sums go on to be squared, so they drop the
    leading 0.0.
    """
    ys = [f"y{i}" for i in range(n)]
    lines = [
        "def trial(fun, t, y, f, h):",
        f"    {', '.join(ys)}, = y",
        f"    {', '.join(f'k0_{i}' for i in range(n))}, = f",
    ]
    for s in range(1, len(_C)):
        stage = ", ".join(f"{ys[i]} + ({_dot(_A[s], i, '0.0 + ')}) * h" for i in range(n))
        lines.append(
            f"    {', '.join(f'k{s}_{i}' for i in range(n))}, "
            f"= fun(t + {_C[s]!r} * h, [{stage}])"
        )
    new = ", ".join(f"{ys[i]} + h * ({_dot(_B, i, '0.0 + ')})" for i in range(n))
    err5 = ", ".join(_dot(_E5, i) for i in range(n))
    err3 = ", ".join(_dot(_E3, i) for i in range(n))
    lines.append(f"    return [{new}], ({err5},), ({err3},)")
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["trial"]


def _rms(values, scale):
    return math.sqrt(sum((v / s) ** 2 for v, s in zip(values, scale)) / len(scale))


def _dop853(fun, t, y, t_end, tol, stop, f=None, h_abs=None):
    """Integrate ``y`` (a list of floats) from ``t`` towards ``t_end``.

    DOP853 as ``scipy.integrate.DOP853`` steps it: the same tableau,
    initial step, error norm and step-size controller, so it tries and
    accepts the same steps, up to rounding in the error estimate.  ``f``,
    when given, is ``fun(t, y)``, and ``h_abs`` the first trial step in
    place of the initial-step rule.
    After every accepted step it calls ``stop(t0, y0, f0, t1, y1)``, with
    f0 the derivative at y0, and returns ``(value, nfev)`` at the first
    value that is not None; reaching ``t_end`` returns ``(None, nfev)``.
    ``nfev`` counts the calls of ``fun``: 11 per trial step, and the
    derivative at each accepted state the loop steps on from (scipy also
    forms it after rejected steps and at the end, where nothing reads it).
    An empty interval (``t == t_end``) takes no trial step: ``stop`` sees
    one step of length zero, from ``(t, y)`` to itself.

    Raises
    ------
    RuntimeError
        On a step-size underflow or a non-finite error norm.
    """
    rtol = tol * _RTOL_FACTOR
    atol = tol * _ATOL_FACTOR
    direction = 1.0 if t_end >= t else -1.0
    nfev = 0
    if f is None:
        f = fun(t, y)
        nfev += 1
    if t == t_end:
        return stop(t, y, f, t, y), nfev
    trial = _trial_for(len(y))
    if h_abs is None:
        # Hairer, Norsett & Wanner, Sec. II.4, as scipy takes it
        interval = abs(t_end - t)
        scale = [atol + abs(v) * rtol for v in y]
        d0, d1 = _rms(y, scale), _rms(f, scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval)
        f1 = fun(t + h0 * direction, [v + h0 * direction * w for v, w in zip(y, f)])
        nfev += 1
        d2 = _rms([a - b for a, b in zip(f1, f)], scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (-_ERROR_EXPONENT)
        h_abs = min(100.0 * h0, h1, interval)
    while True:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError(f"step size underflow at t={t!r}")
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0.0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            y_new, err5, err3 = trial(fun, t, y, f, h)
            nfev += 11
            e5 = e3 = 0.0
            for v, w, a, b in zip(y, y_new, err5, err3):
                s = atol + max(abs(v), abs(w)) * rtol
                e5 += (a / s) ** 2
                e3 += (b / s) ** 2
            if e5 == 0.0 and e3 == 0.0:
                error = 0.0
            else:
                error = h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * len(y))
            if error < 1.0:
                factor = 10.0 if error == 0.0 else min(10.0, 0.9 * error**_ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            if not math.isfinite(error):
                raise RuntimeError(f"non-finite error norm at t={t!r}")
            h_abs *= max(0.2, 0.9 * error**_ERROR_EXPONENT)
            rejected = True
        value = stop(t, y, f, t_new, y_new)
        if value is not None:
            return value, nfev
        if t_new == t_end:
            return None, nfev
        t, y = t_new, y_new
        f = fun(t, y)
        nfev += 1


def _reach(fun, t, y, f, t_end, tol):
    """``(state, nfev)`` at ``t_end``: :func:`_dop853` from ``(t, y)``, with
    ``f = fun(t, y)``, trying the whole way as its first step."""
    return _dop853(
        fun, t, y, t_end, tol,
        lambda _t0, _y0, _f0, t1, y1: y1 if t1 == t_end else None,
        f=f, h_abs=abs(t_end - t),
    )


def _hit(fun, k, t, y, f, target, tol, direction=1.0):
    """``(t, state, nfev)`` where the orbit from ``(t, y)``, with
    ``f = fun(t, y)``, reaches ``y[k] == target``; ``direction`` is -1.0
    when time runs backward.

    Henon's trick: with y[k] as the independent variable the equations
    read d/dy_k = f / f_k, and the time rides along as component k.  One
    :func:`_dop853` run from y[k] to ``target`` ends on the surface exactly;
    it tries the whole way as its first step, which the error control
    accepts unless the way is longer than a time step would be.

    An orbit that starts on the surface hits it at once, with no
    right-hand-side call.

    Raises
    ------
    RuntimeError
        If f_k vanishes or loses the sign that carries y[k] toward
        ``target`` in the sense of time: the orbit turns before it
        reaches the surface.
    """
    if y[k] == target:
        return t, y, 0
    sense = direction if target > y[k] else -direction

    def clock(f):
        if not f[k] * sense > 0.0:
            raise RuntimeError(f"orbit turns before y[{k}] reaches {target!r}")
        rate = 1.0 / f[k]
        out = [v * rate for v in f]
        out[k] = rate
        return out

    def clocked(s, x):
        state = list(x)
        state[k] = s
        return clock(fun(t + x[k], state))

    x = list(y)
    x[k] = 0.0  # time elapsed since t
    x, nfev = _reach(clocked, y[k], x, clock(f), target, tol)
    t_hit = t + x[k]
    x[k] = target
    return t_hit, x, nfev


def _escape(fun, t0, y0, f0, t1, y1, bound, tol):
    """Raise :class:`EscapeDetected` if the accepted step from ``(t0, y0)``
    to ``(t1, y1)`` takes |rho| or |z| to ``bound``; :func:`_hit` puts the
    reported state on the bound, at the first crossing in the sense of time.
    """
    direction = 1.0 if t1 >= t0 else -1.0
    escapes = [
        _hit(fun, k, t0, y0, f0, math.copysign(bound, y1[k]), tol, direction)
        for k in (0, 1)
        if abs(y1[k]) >= bound
    ]
    if escapes:
        t_esc, y_esc, _ = min(escapes, key=lambda hit: direction * hit[0])
        raise EscapeDetected(t_esc, tuple(y_esc))


def integrate(
    initial: OrbitState,
    T: float,
    tol: float = DEFAULT_TOL,
    potential: PotentialSpec | None = None,
    n_samples: int = 1000,
) -> Trajectory:
    """Integrate the orbit for time ``T`` (negative T integrates backward).

    Steps :func:`_dop853`, the adaptive 8th-order Runge-Kutta scheme, at
    relative tolerance tol/10 and absolute tolerance tol/1000, and records
    ``n_samples`` states at evenly spaced times from ``initial.t`` to
    ``initial.t + T``.  A sample time inside an accepted step is reached
    by one side step from that step's start, so the samples do not change
    the steps.  An empty interval gives ``n_samples`` copies of the
    initial state.

    Raises
    ------
    ValueError
        If ``n_samples`` is below 1.
    EscapeDetected
        When |rho| or |z| reaches ``ESCAPE_BOUND``; the reported state
        lies on that bound.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    V = resolve_potential(potential)
    rhs = _rhs_factory(V)
    t_end = initial.t + T
    direction = 1.0 if T >= 0.0 else -1.0
    times = np.linspace(initial.t, t_end, n_samples)
    pending = times[:0:-1].tolist()  # the next sample time comes last
    y = [float(v) for v in initial.as_array()]
    states = [y]

    def stop(t0, y0, f0, t1, y1):
        _escape(rhs, t0, y0, f0, t1, y1, ESCAPE_BOUND, tol)
        while pending and direction * (t1 - pending[-1]) >= 0.0:
            s = pending.pop()
            states.append(y1 if s == t1 else _reach(rhs, t0, y0, f0, s, tol)[0])
        return None

    _dop853(rhs, initial.t, y, t_end, tol, stop)
    return Trajectory(times=times, states=np.array(states), potential=V)


def section_seed_state(
    z: float, p_z: float, E: float, potential: PotentialSpec | None = None
) -> OrbitState:
    """Lift a section point (z, p_z) at energy E onto the section.

    Raises
    ------
    SeedOutsideCZVError
        If the point requires p_rho^2 < 0 at this energy.
    """
    V = resolve_potential(potential)
    radicand = 2.0 * (E - V.value(0.0, z)) - p_z**2
    if radicand <= 0.0:
        raise SeedOutsideCZVError(
            f"section point (z={z}, p_z={p_z}) is not accessible at E={E}"
        )
    return OrbitState(0.0, z, math.sqrt(radicand), p_z)


def poincare_section(
    seeds,
    E: float,
    n_crossings: int,
    tol: float = DEFAULT_TOL,
    potential: PotentialSpec | None = None,
) -> SectionSet:
    """Record ``n_crossings`` section crossings for each (z, p_z) seed.

    Each crossing is a rho = 0 passage with p_rho > 0.  The integration
    steps in time until rho turns non-negative in a step, and
    :func:`_hit` then carries the state of the step's start onto rho = 0
    with rho as the clock, so every crossing has rho exactly 0.  The seed
    itself lies on the section, so it is recorded as the first crossing
    (t = 0) of its seed and counts toward ``n_crossings``; the first
    return of the map is the second row.  Integration of a seed stops at
    its ``n_crossings``-th crossing.

    Raises
    ------
    SeedOutsideCZVError
        For seeds outside the accessible section domain.
    EscapeDetected
        When |rho| or |z| reaches ``ESCAPE_BOUND``; the reported state
        lies on that bound.
    IncompleteSectionError
        If a seed's time budget, ``SECTION_TIME_PER_CROSSING`` per crossing,
        runs out before ``n_crossings`` crossings (slow orbits near the
        escape energy).  The budget is an upper bound on the integration
        time, not the time integrated.
    """
    V = resolve_potential(potential)
    rhs = _rhs_factory(V)
    t_max = SECTION_TIME_PER_CROSSING * (n_crossings + 2)
    seeds = list(seeds)
    rows = []
    for index, (z0, pz0) in enumerate(seeds):
        state = section_seed_state(z0, pz0, E, V)
        y = [float(v) for v in (state.rho, state.z, state.p_rho, state.p_z)]
        found = [(index, y[1], y[3], 0.0)]

        def stop(t0, y0, f0, t1, y1):
            _escape(rhs, t0, y0, f0, t1, y1, ESCAPE_BOUND, tol)
            if y0[0] < 0.0 <= y1[0]:
                t_hit, y_hit, _ = _hit(rhs, 0, t0, y0, f0, 0.0, tol)
                found.append((index, y_hit[1], y_hit[3], t_hit))
                if len(found) == n_crossings:
                    return True
            return None

        if len(found) < n_crossings and _dop853(rhs, 0.0, y, t_max, tol, stop)[0] is None:
            raise IncompleteSectionError(index, len(found), n_crossings, t_max)
        rows += found[:n_crossings]
    points = np.array(rows, dtype=float) if rows else np.empty((0, 4))
    return SectionSet(energy=E, points=points, n_seeds=len(seeds))


def equatorial_turning_point(E: float, potential: PotentialSpec | None = None):
    """Inner-branch turning radius of the equatorial orbit: V(rho, 0) = E."""
    V = resolve_potential(potential)
    e_crit = critical_energy(V)
    shifted = V.as_dict()
    shifted[(0, 0)] = shifted.get((0, 0), 0.0) - E
    # below the lowest barrier the profile first meets E on the inner branch
    roots = equatorial_roots(PotentialSpec(shifted))
    if not 0.0 < E < e_crit or not roots:
        raise ValueError(f"energy {E} outside the bound range (0, {e_crit:.6g})")
    return roots[0]


def central_orbit_monodromy(
    E: float,
    tol: float = DEFAULT_TOL,
    potential: PotentialSpec | None = None,
) -> MonodromyResult:
    """Monodromy matrix of the transverse (z, p_z) variations at energy E.

    Integrates the in-plane orbit from its turning point (rho_max, 0)
    together with two variational columns until rho falls through zero, a
    quarter period, carries the crossing step onto rho = 0 with
    :func:`_hit`, and rebuilds the half-period matrix from the quarter
    matrix M_q = [[a, b], [c, d]]:

    1. time reversal with rho -> -rho maps the orbit onto itself about its
       axis crossing at T/4;
    2. d2V/dz2(rho(t), 0), even in rho, is thus symmetric about T/4, so the
       flow from T/4 to T/2 is S M_q^-1 S with S = diag(1, -1), and
       M_half = S M_q^-1 S M_q = [[ad+bc, 2bd], [2ac, ad+bc]];
    3. det M_half = det(M_q)^2, so the symmetry keeps M_half symplectic.

    The full monodromy matrix is the square of the half-period matrix
    because the curvature repeats with the half period.
    """
    V = resolve_potential(potential)
    rho_max = equatorial_turning_point(E, V)
    rho_terms = [(a, c) for (a, b), c in V.derivative(1, 0).as_dict().items() if b == 0]
    zz_terms = [(a, c) for (a, b), c in V.derivative(0, 2).as_dict().items() if b == 0]

    def rhs(_t, y):
        rho, prho, dz1, dp1, dz2, dp2 = y
        force = 0.0
        for a, c in rho_terms:
            force += c * rho**a
        curv = 0.0
        for a, c in zz_terms:
            curv += c * rho**a
        return (prho, -force, dp1, -curv * dz1, dp2, -curv * dz2)

    def quarter_turn(t0, y0, f0, _t1, y1):
        # rho falls from rho_max through the axis
        return _hit(rhs, 0, t0, y0, f0, 0.0, tol) if y1[0] <= 0.0 else None

    y = [rho_max, 0.0, 1.0, 0.0, 0.0, 1.0]
    quarter, nfev = _dop853(rhs, 0.0, y, 1e4, tol, quarter_turn)
    if quarter is None:
        raise RuntimeError(f"no quarter period found at E={E}")
    t_quarter, (_, _, a, c, b, d), n_hit = quarter
    diagonal = a * d + b * c
    half = np.array([[diagonal, 2.0 * b * d], [2.0 * a * c, diagonal]])
    return MonodromyResult(
        energy=E,
        period=4.0 * t_quarter,
        matrix=half @ half,
        half_matrix=half,
        n_rhs=nfev + n_hit,
    )


def numerical_bifurcation_energy(
    m1: int,
    m2: int,
    potential: PotentialSpec | None = None,
    tol: float = 1e-11,
    traces: dict | None = None,
) -> float:
    """Energy where the transverse rotation number reaches m2/m1.

    The rotation number of small oscillations about the central orbit is
    theta/(2 pi) with cos(theta/2) = Tr(M_half)/2, single-valued below the
    1:1 transition, so the resonance condition m1 m2-fold is
    Tr(M_half)(E) = 2 cos(pi m2/m1).  The 1:1 case lands exactly on the
    stability transition energy.

    ``traces``, when given, maps energies to Tr(M_half); the scan reads it
    and adds every trace it computes.  One dict shared by the calls for
    several resonances, under the same ``potential`` and ``tol``,
    integrates each energy of the common scan grid once.

    Raises
    ------
    NoBifurcationInRange
        If the target trace is not reached inside ``_BIFURCATION_BRACKET``.
    """
    target = 2.0 * math.cos(math.pi * m2 / m1)
    potential = resolve_potential(potential)  # one spec: one barrier solve
    if traces is None:
        traces = {}

    def f(E):
        if E not in traces:
            half = central_orbit_monodromy(E, tol, potential).half_matrix
            traces[E] = float(np.trace(half))
        return traces[E] - target

    # Tr(M_half) leaves (-2, 2) beyond the 1:1 transition and comes back at
    # higher energy (the orbit re-stabilizes), so scan for the first sign
    # change instead of trusting the interval endpoints.
    lo, hi = _BIFURCATION_BRACKET
    grid = np.linspace(lo, hi, 34)
    f_left = f(float(grid[0]))
    if f_left == 0.0:
        return float(grid[0])
    for left, right in zip(grid, grid[1:]):
        f_right = f(float(right))
        if f_right == 0.0:
            return float(right)
        if f_left > 0.0 > f_right or f_left < 0.0 < f_right:
            return float(brentq(f, float(left), float(right), xtol=_BIFURCATION_XTOL))
        f_left = f_right
    raise NoBifurcationInRange(
        f"rotation number {m2}/{m1} not reached for E in [{lo}, {hi}]"
    )
