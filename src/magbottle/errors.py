"""Exception and warning types shared across the package."""


class MagbottleError(Exception):
    """Base class for all package-specific errors."""


class NonNilpotentGenerator(MagbottleError):
    """A Lie-series generator carries book-keeping order 0 terms.

    Such a generator would not terminate the exponential series under
    truncation by book-keeping order.
    """


class ParseError(MagbottleError):
    """Potential text could not be parsed.

    Parameters
    ----------
    message : str
        Description of the problem.
    line, col : int
        1-based position of the offending token.
    """

    def __init__(self, message, line=1, col=1):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class NonPolynomialError(MagbottleError):
    """The potential expression is not a polynomial in rho and z."""


class MissingQuadraticError(MagbottleError):
    """The potential has no positive rho^2 term, so omega_{1,0} is undefined."""


class UnsupportedPotentialError(MagbottleError):
    """The potential violates the magnetic-bottle structure.

    Every monomial must carry an even rho-power >= 2 and an even z-power;
    otherwise the quadratic part is not nilpotent in the z degree of freedom
    or the book-keeping grading by polynomial degree breaks down.
    """


class InvalidFrequencyError(MagbottleError):
    """A resonance frequency passed to the resonant preparation is invalid."""


class InconsistentBlockError(MagbottleError):
    """A k=l block of the homological equation has no solution.

    The pure-q2 row of a k=l block must vanish for the block to be solvable;
    a non-zero entry there means a term outside the admissible class reached
    the solver.
    """


class SmallDivisorError(MagbottleError):
    """A resonant homological divisor fell below the safety floor."""

    def __init__(self, key, divisor, floor):
        super().__init__(
            f"divisor {divisor:.3e} below floor {floor:.1e} for exponents {key}"
        )
        self.key = key
        self.divisor = divisor


class ModeError(MagbottleError):
    """Operation applied to a normalization state of the wrong mode."""


class OrderOverflowError(MagbottleError):
    """Requested normalization order exceeds the truncation order."""


class NonRealHamiltonianError(MagbottleError):
    """A prepared Hamiltonian is not its own conjugate on its complex pairs.

    The normalization forms one product per complex pair of each bracket
    and takes the other as its conjugate, which holds for real functions
    only.
    """


class NonRealIntegralError(MagbottleError):
    """Back-transformed integral has imaginary residue above tolerance."""


class SeedOutsideCZVError(MagbottleError):
    """A section seed lies outside the energetically allowed region."""


class EscapeDetected(MagbottleError):
    """An orbit left the escape bounding box during integration."""

    def __init__(self, t, state):
        super().__init__(f"orbit escaped at t={t:.6g}")
        self.t = t
        self.state = state


class IncompleteSectionError(MagbottleError):
    """A section seed ran out of integration time before its crossings.

    Parameters
    ----------
    seed_index : int
        Position of the seed in the seed list.
    found, requested : int
        Crossings recorded and crossings asked for.
    t_max : float
        The integration time the seed was given.
    """

    def __init__(self, seed_index, found, requested, t_max):
        super().__init__(
            f"seed {seed_index}: {found} of {requested} section crossings "
            f"within t_max={t_max:g}"
        )
        self.seed_index = seed_index
        self.found = found
        self.requested = requested
        self.t_max = t_max


class NoBifurcationInRange(MagbottleError):
    """No bifurcation of the requested resonance in the scanned energy range."""


class NoRootError(MagbottleError):
    """A root solve found no sign change in its bracket."""


class RangeError(MagbottleError):
    """An argument lies outside its documented range."""


class MultipleRootsWarning(UserWarning):
    """A bifurcation condition had several roots; the smallest was returned."""


class FlatMinimumWarning(UserWarning):
    """The optimal order landed on the boundary of the scanned order range."""


class DegenerateFitWarning(UserWarning):
    """Fewer than two distinct delta-E values lie in the fit window.

    The scaling laws of an optimal-order scan need at least two points;
    with fewer the fit is skipped rather than solved as a degenerate
    least-squares problem.
    """
