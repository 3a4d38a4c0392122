"""Acceptance gate: eleven end-to-end criteria, one printed verdict each.

Each test prints one ACCEPTANCE line with its verdict and the measured
quantity, then asserts. Tolerances are pinned here on purpose; loosening
them is a behavior change, not a test fix.
"""

import json
import time

import numpy as np
import pytest

from conftest import random_connected_graph, record_accepted_iterates
from yamabe import (
    ProblemSpec,
    SolveOptions,
    WeightedGraph,
    GraphFamily,
    ProblemFamily,
    choose_truncation_radius,
    constraint_K,
    cycle_graph,
    energy_J,
    exhaustion_study,
    graph_distance,
    inequality_suite,
    integrate,
    J_gradient,
    K_derivative_action,
    lattice_ball,
    p_laplacian,
    path_graph,
    residual_report,
    solve,
    tree_ball,
)
from yamabe.cli import main as cli_main
from yamabe.solver import _universe_tails


def _verdict(capsys, num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    return line


def unit_spec(graph, p=4.0, alpha=3.0, delta=0.4, theta=1.0, h=1.0):
    return ProblemSpec(
        p=p,
        alpha=alpha,
        delta=delta,
        theta=theta,
        h=np.full(graph.n, float(h)),
        g=np.ones(graph.n),
    )


def _warm_kernels():
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
    for p in (2.0, 2.5, 3.0, 4.0):
        p_laplacian(g, p, [0.0, 1.0])
        energy_J(g, unit_spec(g, p=p), np.ones(2))


def _corpus(count=100):
    rng = np.random.default_rng(20260819)
    graphs = [random_connected_graph(rng, n_max=30) for _ in range(count)]
    funcs = [rng.standard_normal(g.n) for g in graphs]
    return graphs, funcs


def test_criterion_01_linear_operator_oracle(capsys):
    _warm_kernels()
    graphs, funcs = _corpus()
    start = time.perf_counter()
    worst = 0.0
    for g, f in zip(graphs, funcs):
        W = np.zeros((g.n, g.n))
        for x in range(g.n):
            nbrs, wts = g.neighbors(x)
            W[x, nbrs] = wts
        dense = (W @ f - W.sum(axis=1) * f) / g.mu
        worst = max(worst, float(np.max(np.abs(p_laplacian(g, 2.0, f) - dense))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    line = _verdict(
        capsys, 1, "p2-matches-dense-linear-laplacian", ok,
        f"max vertex dev {worst:.3g}, {elapsed:.2f} s for 100 graphs",
    )
    assert ok, line


def test_criterion_02_energy_identity(capsys):
    _warm_kernels()
    graphs, funcs = _corpus()
    worst = 0.0
    from yamabe import dirichlet_energy, p_gradient_norm

    for g, f in zip(graphs, funcs):
        for p in (2.0, 2.5, 3.0, 4.0):
            vertex = float(integrate(g, p_gradient_norm(g, p, f) ** p))
            edge = dirichlet_energy(g, p, f)
            worst = max(worst, abs(vertex - edge) / max(abs(edge), 1e-300))
    ok = worst <= 1e-12
    line = _verdict(
        capsys, 2, "energy-identity-vertex-vs-edge", ok, f"max rel dev {worst:.3g}"
    )
    assert ok, line


def test_criterion_03_derivatives_match_finite_differences(capsys):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        g = random_connected_graph(rng, n_max=30)
        p = float(rng.choice([2.5, 3.0, 4.0]))
        spec = unit_spec(g, p=p, alpha=3.0 if p >= 3.0 else 2.5)
        u = rng.standard_normal(g.n)
        v = rng.standard_normal(g.n)
        step = 1e-5 * (1.0 + float(np.max(np.abs(u))))

        exact_j = float(integrate(g, J_gradient(g, spec, u) * v))
        fd_j = (
            energy_J(g, spec, u + step * v) - energy_J(g, spec, u - step * v)
        ) / (2.0 * step)
        exact_k = K_derivative_action(g, spec, u, v)
        fd_k = (
            constraint_K(g, spec, u + step * v) - constraint_K(g, spec, u - step * v)
        ) / (2.0 * step)
        for exact, fd in ((exact_j, fd_j), (exact_k, fd_k)):
            dev = abs(exact - fd) / max(abs(exact), abs(fd), 1e-3)
            worst = max(worst, dev)
    ok = worst <= 1e-5
    line = _verdict(
        capsys, 3, "directional-derivatives-vs-central-fd", ok,
        f"max rel dev {worst:.3g} over 200 triples",
    )
    assert ok, line


def test_criterion_04_single_vertex_closed_form(capsys):
    g = WeightedGraph.from_edges(1, [])
    res = solve(g, unit_spec(g))
    dev = max(
        abs(res.u_bar[0] - 1.0),
        abs(res.gamma - 1.0),
        abs(res.lam - 4.0 / 3.0),
        res.residual_sup,
    )
    ok = dev <= 1e-12 and res.converged
    line = _verdict(
        capsys, 4, "single-vertex-hand-solution", ok,
        f"u={res.u_bar[0]:.17g} gamma={res.gamma:.17g} lam={res.lam:.17g} "
        f"residual={res.residual_sup:.3g}",
    )
    assert ok, line


def _grid_minimum():
    # scale-invariant merit J(a,b)/K(a,b)^{4/3} on rays through the grid
    def merit(a, b):
        j = (a - b) ** 4 + a ** 4 + b ** 4
        k = a ** 3 + b ** 3
        out = np.full_like(j, np.inf)
        np.divide(j, k ** (4.0 / 3.0), out=out, where=k > 0)
        return out

    lo_a, hi_a, lo_b, hi_b, step = 0.0, 3.0, 0.0, 3.0, 1e-3
    best = np.inf
    best_ab = (0.0, 0.0)
    for _ in range(3):
        a_vals = np.arange(lo_a, hi_a + step / 2, step)
        b_vals = np.arange(lo_b, hi_b + step / 2, step)
        for a in a_vals:
            m = merit(np.full_like(b_vals, a), b_vals)
            idx = int(np.argmin(m))
            if m[idx] < best:
                best = float(m[idx])
                best_ab = (float(a), float(b_vals[idx]))
        lo_a, hi_a = best_ab[0] - 2 * step, best_ab[0] + 2 * step
        lo_b, hi_b = best_ab[1] - 2 * step, best_ab[1] + 2 * step
        lo_a, lo_b = max(lo_a, 0.0), max(lo_b, 0.0)
        step /= 10.0
    return best


def test_criterion_05_two_vertex_grid_oracle(capsys):
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
    res = solve(g, unit_spec(g))
    grid = _grid_minimum()
    dev = abs(res.gamma - grid)
    ok = dev <= 1e-4 and res.converged
    line = _verdict(
        capsys, 5, "two-vertex-brute-force-oracle", ok,
        f"solver {res.gamma:.17g} vs grid {grid:.17g}, dev {dev:.3g}",
    )
    assert ok, line


def test_criterion_06_path20_end_to_end(capsys):
    start = time.perf_counter()
    g, _ = path_graph(20)
    spec = unit_spec(g)
    res = solve(g, spec)
    rep = residual_report(g, spec, res.u, eigen_factor=1.0)
    quadrupled = unit_spec(g, theta=4.0)
    res4 = solve(g, quadrupled)
    theta_dev = float(
        np.max(np.abs(res4.u - res.u)) / max(float(np.max(np.abs(res.u))), 1e-300)
    )
    elapsed = time.perf_counter() - start
    checks = {
        "converged": res.converged,
        "K=1": abs(res.k_value - 1.0) <= 1e-10,
        "u>0": bool(np.all(res.u > 0.0)),
        "residual": rep.residual_sup <= 1e-6,
        "lam=p*gamma/alpha": abs(res.lam - 4.0 * res.gamma / 3.0)
        <= 1e-8 * abs(res.lam),
        "theta-invariance": theta_dev <= 1e-6,
        "runtime": elapsed < 10.0,
    }
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    line = _verdict(
        capsys, 6, "path20-full-pipeline", ok,
        f"residual {rep.residual_sup:.3g}, theta dev {theta_dev:.3g}, "
        f"{elapsed:.2f} s" + (f", failed: {failed}" if failed else ""),
    )
    assert ok, line


def test_criterion_07_exhaustion_monotonicity(capsys):
    family = GraphFamily("lattice_zd_ball", {"d": 1})
    problem = ProblemFamily(p=4.0, alpha=3.0, delta=0.4, h="1 + dist^4", g=1.0)
    radii = (4, 8, 16, 32)
    study = exhaustion_study(
        family, problem, radii, SolveOptions(grad_tol=1e-11, max_iters=50000)
    )
    gammas = [row["gamma"] for row in study["rows"]]
    gaps = study["gaps"]
    bounds = [row["tail_bound"] for row in study["rows"]]

    g_u, x0 = family.materialize(2 * max(radii))
    spec_u = problem.on(g_u, x0)
    _, tails = _universe_tails(g_u, spec_u, x0)
    chosen = [
        choose_truncation_radius(g_u, spec_u, x0, epsilon=float(tails[r]))
        for r in radii
    ]

    checks = {
        "nonincreasing": all(b <= a + 1e-9 for a, b in zip(gammas, gammas[1:])),
        "cauchy": gaps[2] < gaps[1],
        "tail-bound-decreasing": all(b < a for a, b in zip(bounds, bounds[1:])),
        "radius-recovered": [c.radius for c in chosen] == list(radii),
        "chosen-bounds-decreasing": all(
            b.k_tail_bound < a.k_tail_bound for a, b in zip(chosen, chosen[1:])
        ),
        "all-converged": all(row["converged"] for row in study["rows"]),
    }
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    line = _verdict(
        capsys, 7, "nested-truncation-energy-monotone", ok,
        f"gammas {[format(x, '.12g') for x in gammas]}, gaps "
        f"{[format(x, '.3g') for x in gaps]}"
        + (f", failed: {failed}" if failed else ""),
    )
    assert ok, line


def test_criterion_08_inequality_suite_thousand_draws(capsys, monkeypatch):
    g, _ = path_graph(20)
    dist = graph_distance(g, 0).astype(np.float64)
    spec = ProblemSpec(
        p=4.0, alpha=3.0, delta=0.4, theta=1.0, h=1.0 + dist ** 2, g=np.ones(g.n)
    )
    report = inequality_suite(g, spec, trials=1000, seed=2026)
    violations = {
        name: state["violations"] for name, state in report["inequalities"].items()
    }
    # the sup bound must also hold along actual solver iterates
    accepted = record_accepted_iterates(monkeypatch)
    solve(g, spec)
    sup, j = np.array(accepted).T
    min_hmu = float(np.min(spec.h * g.mu))
    iterate_ok = bool(np.all(min_hmu * sup ** spec.p <= j * (1.0 + 1e-9)))
    ok = report["passed"] and sum(violations.values()) == 0 and iterate_ok
    line = _verdict(
        capsys, 8, "inequality-suite-1000-draws", ok,
        f"violations {violations}, iterate sup bound "
        f"{'holds' if iterate_ok else 'VIOLATED'}",
    )
    assert ok, line


def test_criterion_09_equal_exponents_branch(capsys):
    g, _ = path_graph(10)
    unit = unit_spec(g, p=3.0, alpha=3.0)
    res = solve(g, unit)
    rep = residual_report(g, unit, res.u, eigen_factor=res.eigen_factor)
    # with h = 2 the level moves off alpha/p and the factor must be flagged
    shifted = unit_spec(g, p=3.0, alpha=3.0, h=2.0)
    res2 = solve(g, shifted)
    rep2 = residual_report(g, shifted, res2.u, eigen_factor=res2.eigen_factor)
    checks = {
        "converged": res.converged and res2.converged,
        "residual": rep.residual_sup <= 1e-6 and rep2.residual_sup <= 1e-6,
        "flag-logic-1": res.eigen_factor_is_unit
        == (abs(res.eigen_factor - 1.0) <= 1e-8),
        "flag-logic-2": res2.eigen_factor_is_unit
        == (abs(res2.eigen_factor - 1.0) <= 1e-8),
        "shifted-flagged": not res2.eigen_factor_is_unit,
    }
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    line = _verdict(
        capsys, 9, "eigenvalue-branch-p-equals-alpha", ok,
        f"factors {res.eigen_factor:.12g} (unit={res.eigen_factor_is_unit}) and "
        f"{res2.eigen_factor:.12g} (unit={res2.eigen_factor_is_unit})"
        + (f", failed: {failed}" if failed else ""),
    )
    assert ok, line


def test_criterion_10_deterministic_reports(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "graph": {"family": "path", "params": {"n": 20}},
                "problem": {"p": 4.0, "alpha": 3.0, "delta": 0.4},
                "solver": {"seed": 11},
            }
        )
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    rc1 = cli_main(["solve", "--config", str(cfg), "--out", str(out1)])
    rc2 = cli_main(["solve", "--config", str(cfg), "--out", str(out2)])
    capsys.readouterr()
    report_same = (out1 / "report.json").read_bytes() == (
        out2 / "report.json"
    ).read_bytes()
    solution_same = (out1 / "solution.csv").read_bytes() == (
        out2 / "solution.csv"
    ).read_bytes()
    ok = rc1 == 0 and rc2 == 0 and report_same and solution_same
    line = _verdict(
        capsys, 10, "bit-identical-repeat-reports", ok,
        f"exit codes ({rc1}, {rc2}), report identical {report_same}, "
        f"solution identical {solution_same}",
    )
    assert ok, line


def test_criterion_11_flat_branch_closed_form_level(capsys):
    # h = g = theta = 1 and p = alpha: every constant competitor on K = 1 has
    # J = h / (theta g) = 1, and J >= h int |u|^p = h / (theta g) K for all u,
    # so the minimum level is exactly 1. The constant is the exact minimizer,
    # but a small residual does not bound |u - c| here (J - 1 is below the
    # float resolution of J long before du is), so only the level is pinned.
    graphs = {
        "path30": path_graph(30),
        "z2r10": lattice_ball(2, 10),
        "tree6": tree_ball(2, 6),
        "cycle20": cycle_graph(20),
    }
    failed, worst_gap, most_iters = [], 0.0, 0
    for name, (graph, x0) in graphs.items():
        for p in (3.0, 4.0, 6.0):
            spec = unit_spec(graph, p=p, alpha=p, delta=min(0.4, 0.9 / (p - 2.0)))
            res = solve(graph, spec, SolveOptions(max_iters=3000, x0=x0))
            gap = res.gamma - 1.0
            worst_gap, most_iters = max(worst_gap, abs(gap)), max(most_iters, res.iters)
            if not (res.converged and 0.0 <= gap <= 1e-6):
                failed.append(f"{name} p={p:g}: converged={res.converged}, gamma-1={gap:.3g}")
    ok = not failed
    line = _verdict(
        capsys, 11, "flat-branch-closed-form-level", ok,
        f"12 instances, worst |gamma - 1| {worst_gap:.3g}, most iterations {most_iters}"
        + (f", failed: {failed}" if failed else ""),
    )
    assert ok, line
