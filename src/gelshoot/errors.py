"""Exception types shared across the package."""


class GelshootError(Exception):
    """Base class for all package-specific errors."""


class DomainError(GelshootError, ValueError):
    """A parameter lies outside the admissible domain."""


class OutOfRangeError(GelshootError):
    """Evaluation requested outside a trajectory's covered interval."""


class BlowUpError(GelshootError):
    """Solution magnitude exceeded the configured cap.

    Carries the abscissa where the cap was exceeded and the partial
    result computed up to that point: the integrator's trajectory, or the
    simulator's chain solution.
    """

    def __init__(self, location, trajectory=None, solution=None):
        super().__init__(f"solution exceeded value cap near {location:.6g}")
        self.location = location
        self.trajectory = trajectory
        self.solution = solution


class StepUnderflowError(GelshootError):
    """Adaptive step size shrank below the resolvable scale."""

    def __init__(self, location, step):
        super().__init__(f"step underflow at {location:.6g} (h={step:.3e})")
        self.location = location
        self.step = step


class StepBudgetError(GelshootError):
    """A run spent its budget of attempted steps short of its span's end, or
    was refused up front; carries the t reached and any partial trajectory."""

    def __init__(self, name, location, end, trajectory, floor, budget):
        tr = trajectory
        super().__init__(
            f"{name} run: step budget spent at t = {location:.6g} of "
            f"{end:.6g} ({len(tr.ts) - 1} accepted, {tr.n_rejected} "
            f"rejected, {tr.n_passes} extra passes, {tr.n_fallback} "
            "fallbacks)" if floor is None else
            f"{name} run: refused before the first step, as the step-size "
            f"cap needs at least {floor:.4g} accepted steps from t = "
            f"{location:.6g} to {end:.6g}, over the step budget of {budget}")
        self.location = location
        self.trajectory = trajectory


class SampleBudgetError(GelshootError):
    """A curve needs more samples than the sample budget allows."""


class SeriesOverflowError(GelshootError):
    """A power series left the floating-point range: a coefficient is not
    finite, or the point where the series hands over underflows."""

    def __init__(self, where, order):
        super().__init__(f"{where}: the term of order {order} leaves the "
                         "double range")
        self.where = where
        self.order = order


class TermCapError(GelshootError):
    """A series reached its term cap before its stop test passed, so its
    truncated sum would be wrong."""

    def __init__(self, where, cap):
        super().__init__(f"{where}: no stop within {cap} terms")
        self.where = where
        self.cap = cap


class SolverFailureError(GelshootError):
    """The chain solver's step fell below 10 ulps of t, or turned NaN.

    Carries the last abscissa the solver reached and its message.
    """

    def __init__(self, location, solver_message):
        super().__init__(f"ODE solver failed at t={location:.6g}: "
                         f"{solver_message}")
        self.location = location
        self.solver_message = solver_message


class BracketFailureError(GelshootError):
    """Both bisection endpoints classified identically."""

    def __init__(self, lo, hi, class_lo, class_hi):
        super().__init__(
            f"no bracket: b={lo:.6g} -> {class_lo}, b={hi:.6g} -> {class_hi}"
        )
        self.lo = lo
        self.hi = hi
        self.class_lo = class_lo
        self.class_hi = class_hi


class NoPlateausError(GelshootError):
    """Fewer than two plateaus detected in a stair-like profile."""


class NoSignChangeError(GelshootError):
    """Root bracketing failed: same sign at both endpoints."""

    def __init__(self, lo, f_lo, hi, f_hi):
        super().__init__(
            f"no sign change: F({lo:.6g})={f_lo:.3e}, F({hi:.6g})={f_hi:.3e}"
        )
        self.endpoints = ((lo, f_lo), (hi, f_hi))


class NonContractionError(GelshootError):
    """Picard iteration diverged (sup-difference grew repeatedly)."""

    def __init__(self, history):
        super().__init__(
            "iteration not contracting; sup-diff history: "
            + ", ".join(f"{d:.3e}" for d in history[-5:])
        )
        self.history = list(history)


class RoundoffFloorError(GelshootError):
    """An iteration stopped converging at round-off, above the tolerance."""

    def __init__(self, tol, floor, history):
        super().__init__(
            f"tol {tol:.3e} is below the round-off floor {floor:.3e}; "
            f"sup-diff stopped falling at {history[-1]:.3e}")
        self.tol = tol
        self.floor = floor
        self.history = list(history)


class OriginOnCurveError(GelshootError):
    """The stability curve passes through the origin, or closer to it than
    its sampling resolves (boundary case)."""


class WindingCountError(GelshootError):
    """The argument-principle count is not an even integer."""


class TruncationWarning(UserWarning):
    """A truncated quadrature or series tail exceeds its target bound."""
