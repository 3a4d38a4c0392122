"""Exception types shared across the package."""


class ConsistencyError(RuntimeError):
    """An internal identity that must hold to rounding was violated.

    Raised when two independent computations of the same quantity disagree
    (e.g. the Lagrange multiplier from the duality pairing and from its
    closed form on K = 1). This signals a kernel or accounting bug, not bad
    user input.
    """


class HypothesisError(ValueError):
    """A standing hypothesis of the problem class is violated.

    Carries the name of the first failed check in ``name``.
    """

    def __init__(self, name: str, message: str):
        super().__init__(f"{name}: {message}")
        self.name = name


class InfeasibleConstraintError(RuntimeError):
    """The constraint level set is unreachable (e.g. g vanishes identically)."""


class DegenerateConstraintError(RuntimeError):
    """Multiplier extraction hit a nonpositive constraint integral."""


class TruncationError(RuntimeError):
    """The requested tail tolerance is unattainable within the radius budget."""

    def __init__(self, message: str, achieved_tail: float):
        super().__init__(message)
        self.achieved_tail = achieved_tail
