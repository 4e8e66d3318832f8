"""Exception types shared across the library.

The CLI maps these onto exit codes: validation problems exit 2,
budget/construction failures exit 3, tolerance failures exit 1.
"""


class PolytorusError(Exception):
    """Base class for all library errors."""


class DimensionError(PolytorusError, ValueError):
    """An object was used with an incompatible prime-basis dimension."""


class FrequencyOverflowError(PolytorusError, OverflowError):
    """A frequency left the exact 64-bit integer range; refused, never wrapped."""


class DomainError(PolytorusError, ValueError):
    """A numeric argument lies outside the documented domain."""


class BudgetExhaustedError(PolytorusError, RuntimeError):
    """The solver ran out of steps before finding a qualifying t.

    Existence is guaranteed for rationally independent frequencies, so this
    is a resource failure, not a mathematical one.  ``best_t`` and
    ``best_residuals`` record the candidate with the smallest worst residual:
    over every candidate for the reference scan, and over the lattice
    candidates in the first filtered coordinate's widened window for the
    lattice backend (every candidate when ``k = 1`` or that window is empty).
    """

    def __init__(self, steps, best_t, best_residuals):
        self.steps = steps
        self.best_t = best_t
        self.best_residuals = tuple(float(r) for r in best_residuals)
        worst = max(self.best_residuals) if self.best_residuals else float("nan")
        super().__init__(
            f"budget of {steps} steps exhausted; best candidate t={best_t!r} "
            f"with max residual {worst:.6g}"
        )


class CapacityError(PolytorusError, ValueError):
    """A construction would exceed the configured atom cap; refused up front."""


class ConstructionError(PolytorusError, RuntimeError):
    """A measure construction failed; carries the level/source/repetition."""

    def __init__(self, message, *, level=None, source=None, repetition=None):
        self.level = level
        self.source = source
        self.repetition = repetition
        ctx = ", ".join(
            f"{name}={val}"
            for name, val in (("level", level), ("source", source), ("rep", repetition))
            if val is not None
        )
        super().__init__(f"{message} ({ctx})" if ctx else message)


class WindowRepresentationError(PolytorusError, ValueError):
    """A window is empty or misses atoms for some source point."""


class EmptyMeasureError(PolytorusError, ValueError):
    """A mean was requested against zero mass."""


class PlanError(PolytorusError, ValueError):
    """A nested-construction plan is inconsistent or too short."""


class ParseError(PolytorusError, ValueError):
    """A serialized artifact is malformed; carries the offending line."""

    def __init__(self, message, line_number=None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
