"""Exception types shared across the package."""


class ConsistencyError(RuntimeError):
    """An internal identity that must hold to rounding was violated.

    Raised when the descent's last iterate has drifted off K = 1, when an
    iterate breaks the sup bound min(h mu) sup u^p <= J(u), and when
    ``lagrange_multiplier`` is given a u_bar off K = 1 (beyond 1e-8). Inside
    ``solve`` this signals a kernel or accounting bug, not bad user input.
    """


class HypothesisError(ValueError):
    """A standing hypothesis of the problem class is violated.

    Carries the name of the first failed check in ``name``.
    """

    def __init__(self, name: str, message: str):
        super().__init__(f"{name}: {message}")
        self.name = name


class InfeasibleConstraintError(RuntimeError):
    """The constraint level set K = 1 is unreachable.

    Raised by ``solver._Evaluator.onto_constraint`` when the descent's start
    (in ``minimize_constrained``) or the uniform competitor (in
    ``choose_truncation_radius`` and ``exhaustion_study``) cannot be put on
    K = 1: g vanishes on every vertex, so the set is empty, or float64
    cannot reach it, as K underflows to 0 or K or alpha theta g overflows,
    or g is negative or not finite where the hypotheses were not checked;
    also when the energy J of such a start on K = 1 overflows float64.
    """


class DegenerateConstraintError(RuntimeError):
    """Multiplier extraction hit a nonpositive constraint integral or
    multiplier (lam underflowing to 0 among them), or a factor that leaves
    float64: the rescaling kappa (see ``solver._kappa``) or lam theta."""


class TruncationError(RuntimeError):
    """The requested tail tolerance is unattainable within the radius budget."""

    def __init__(self, message: str, achieved_tail: float):
        super().__init__(message)
        self.achieved_tail = achieved_tail
