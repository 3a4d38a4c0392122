"""The inequality suite evaluated one trial at a time, the reference for
``yamabe.verify.inequality_suite``.

The loops below are the suite as it ran before its trials were evaluated in
blocks: every trial draws, checks and records its own vertex functions
through the public ``integrate`` and ``energy_J``. The blocked suite must
return the same report, bit for bit, for every graph, spec, trial count and
seed; ``tests/test_verify.py`` compares the two.
"""

import numpy as np

from yamabe.functionals import ProblemSpec, _check_spec, energy_J
from yamabe.graph import WeightedGraph, integrate


def _ratio_update(state: dict, lhs, rhs) -> None:
    """Track max lhs/rhs and count violations of lhs <= rhs (1e-9 slack)."""
    lhs = np.atleast_1d(np.asarray(lhs, dtype=np.float64))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=np.float64))
    bad = lhs > rhs * (1.0 + 1e-9) + 1e-300
    state["violations"] += int(np.count_nonzero(bad))
    pos = rhs > 0.0
    if np.any(pos):
        state["max_ratio"] = max(
            state["max_ratio"], float(np.max(lhs[pos] / rhs[pos]))
        )


def reference_inequality_suite(
    g: WeightedGraph, spec: ProblemSpec, trials: int, seed: int
) -> dict:
    """Randomized verification of the inequalities the argument rests on.

    These inequalities hold identically, so any violation beyond 1e-9
    relative slack is an implementation bug, not a numerical finding.
    The seed is recorded in the report for replay.  Two of the
    inequalities need p > 2, which the hypotheses 2 < alpha <= p imply.
    """
    _check_spec(g, spec)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not spec.p > 2.0:
        raise ValueError("inequality_suite needs p > 2")
    rng = np.random.default_rng(seed)
    p, alpha, delta = spec.p, spec.alpha, spec.delta
    n = g.n
    results: dict[str, dict] = {}

    def fresh() -> dict:
        return {"violations": 0, "max_ratio": 0.0}

    # |x^a - y^a| <= a |x - y| (x^{a-1} + y^{a-1}) for x, y >= 0, a >= 1
    state = fresh()
    x = rng.uniform(0.0, 10.0, trials)
    y = rng.uniform(0.0, 10.0, trials)
    a = rng.uniform(1.0, 6.0, trials)
    _ratio_update(state, np.abs(x**a - y**a), a * np.abs(x - y) * (x ** (a - 1.0) + y ** (a - 1.0)))
    results["elementary"] = state

    # h^{-1/(p-2)} <= (min h)^{-(1/(p-2) - d)} h^{-d} pointwise, 0 < d < 1/(p-2)
    state = fresh()
    _ratio_update(
        state,
        spec.h ** (-1.0 / (p - 2.0)),
        float(np.min(spec.h)) ** (-(1.0 / (p - 2.0) - delta)) * spec.h ** (-delta),
    )
    for _ in range(trials):
        h_r = np.exp(rng.standard_normal(n))
        d_r = rng.uniform(0.0, 1.0 / (p - 2.0))
        _ratio_update(
            state,
            h_r ** (-1.0 / (p - 2.0)),
            float(np.min(h_r)) ** (-(1.0 / (p - 2.0) - d_r)) * h_r ** (-d_r),
        )
    results["gj_pointwise"] = state

    # int |w|^{p/(p-1)} dmu <= (int h^{-1/(p-2)} dmu)^{(p-2)/(p-1)} (int h|w|^p dmu)^{1/(p-1)}
    # one scalar pair per trial here and below, so one _ratio_update takes them all
    state = fresh()
    h_int = float(integrate(g, spec.h ** (-1.0 / (p - 2.0))))
    lhs, rhs = np.empty(trials), np.empty(trials)
    for k in range(trials):
        w = rng.standard_normal(n)
        lhs[k] = float(integrate(g, np.abs(w) ** (p / (p - 1.0))))
        rhs[k] = h_int ** ((p - 2.0) / (p - 1.0)) * float(
            integrate(g, spec.h * np.abs(w) ** p)
        ) ** (1.0 / (p - 1.0))
    _ratio_update(state, lhs, rhs)
    results["holder_embedding"] = state

    # min(h mu) sup|u|^p <= J(u) for every u
    state = fresh()
    min_hmu = float(np.min(spec.h * g.mu))
    for k in range(trials):
        u = rng.uniform(0.1, 3.0) * rng.standard_normal(n)
        lhs[k] = min_hmu * float(np.max(np.abs(u))) ** p
        rhs[k] = energy_J(g, spec, u)
    _ratio_update(state, lhs, rhs)
    results["bd_sup_bound"] = state

    for state in results.values():
        state["passed"] = state["violations"] == 0
    return {
        "seed": seed,
        "trials": trials,
        "passed": all(state["passed"] for state in results.values()),
        "inequalities": results,
    }
