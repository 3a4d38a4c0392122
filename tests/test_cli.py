"""CLI subcommands: exit codes, report files, determinism."""

import csv
import io
import json
import logging
import re
import shutil
import subprocess
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import count_calls, raise_trial_energies
from yamabe import cli
from yamabe.cli import dumps17, main
from yamabe.graph import _bfs


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "graph": {"family": "path", "params": {"n": 12}},
        "problem": {"p": 4.0, "alpha": 3.0, "delta": 0.4, "h": "1 + dist^2", "g": 1},
        "solver": {"grad_tol": 1e-8, "seed": 0},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_solve_success(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["positive"] is True
    assert report["n"] == 12
    assert report["eigen_factor"] == 1.0
    assert abs(report["k_value"] - 1.0) <= 1e-10
    assert report["truncation"] is None
    assert report["line_search_trials"] >= report["iters"] > 0
    assert 0.0 <= report["residual_rel_sup"] <= 1.0
    lines = (out / "solution.csv").read_text().splitlines()
    assert lines[0] == "vertex,u,residual"
    assert len(lines) == 13
    assert "gamma=" in capsys.readouterr().out


def test_solve_bit_identical_reports(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()


def test_verify_seed_override_recorded(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["inequalities"]["seed"] == 7


def test_solve_ignores_seed(tmp_path, capsys):
    # solve certifies the instance and draws nothing random; the
    # inequality suite is verify's
    cfg = write_config(tmp_path)
    out7, out8 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(out7), "--seed", "7"]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out8), "--seed", "8"]) == 0
    report = (out7 / "report.json").read_bytes()
    assert report == (out8 / "report.json").read_bytes()
    assert {"seed", "inequalities"}.isdisjoint(json.loads(report))
    # --trials is verify's option only
    with pytest.raises(SystemExit):
        main(["solve", "--config", cfg, "--out", str(out7), "--trials", "20"])
    assert "unrecognized arguments: --trials" in capsys.readouterr().err


def test_solve_non_hypothesis_value_error_leaves_no_out(tmp_path, capsys):
    # every solve starts at the anchor; a start-vertex key is rejected
    # before anything is written
    cfg = write_config(tmp_path, solver={"x0": 99})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert "invalid config: unknown solver keys: ['x0']" in capsys.readouterr().err
    assert not out.exists()


def test_main_leaves_root_logger_alone(tmp_path, capsys, monkeypatch):
    # a CLI run must not configure logging for the process hosting it;
    # start from an unconfigured root logger, as outside pytest
    root = logging.getLogger()
    monkeypatch.setattr(root, "handlers", [])
    monkeypatch.setattr(root, "level", logging.WARNING)
    cfg = write_config(tmp_path)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert root.handlers == [] and root.level == logging.WARNING
    capsys.readouterr()


def test_solve_floats_have_17_digits(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "report.json").read_text()
    gamma = json.loads(text)["gamma"]
    assert format(gamma, ".17g") in text


def test_solve_hypothesis_failure_is_validation(tmp_path, capsys):
    cfg = write_config(
        tmp_path, problem={"p": 4.0, "alpha": 2.0, "delta": 0.4}
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err
    assert "alpha must exceed 2" in err
    assert not (out / "report.json").exists()


def test_solve_infeasible_constraint_is_numerical(tmp_path, capsys):
    cfg = write_config(
        tmp_path, problem={"p": 4.0, "alpha": 3.0, "delta": 0.4, "g": 0}
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    assert "infeasible constraint" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert "infeasible constraint" in report["error"]


def test_solve_rejects_unknown_keys(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, solver={"grad_tol": 1e-8, "momentum": 0.9})
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert "momentum" in capsys.readouterr().err
    cfg = write_config(
        tmp_path, problem={"p": 4.0, "alpha": 3.0, "delta": 0.4, "q": 2}
    )
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2


def test_solve_bad_config_file(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["solve", "--config", str(broken), "--out", str(tmp_path)]) == 2
    assert main(["solve", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_formula_parse_warning_is_not_printed(tmp_path, capsys):
    # the parser warns of "1if" before the grammar rejects the formula: only
    # the exit-2 line may reach stderr
    cfg = write_config(tmp_path, problem={"p": 4.0, "alpha": 3.0, "delta": 0.4, "h": "1if dist else 2"})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert err.startswith("invalid config: field formula '1if dist else 2' is not in the grammar")
    assert err.count("\n") == 1


def test_solve_with_truncation_section(tmp_path):
    cfg = write_config(
        tmp_path,
        graph={"family": "lattice_zd_ball", "params": {"d": 1, "radius": 40}},
        problem={"p": 4.0, "alpha": 3.0, "delta": 0.4, "h": "1 + dist^4"},
        truncation={"epsilon": 0.5},
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["truncation"] is not None
    assert report["truncation"]["tail_value"] <= 0.5
    # the solve ran on the truncated ball, not the 81-vertex universe
    assert report["n"] == 2 * report["truncation"]["radius"] + 1
    assert report["n"] < 81


def test_solve_unreachable_truncation_is_numerical(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        graph={"family": "lattice_zd_ball", "params": {"d": 1, "radius": 20}},
        problem={"p": 4.0, "alpha": 3.0, "delta": 0.4, "h": "1 + dist^4"},
        truncation={"epsilon": 1e-300, "r_max": 5},
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    assert "truncation failed" in capsys.readouterr().err


def test_sweep_success(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        graph={"family": "lattice_zd_ball", "params": {"d": 1}},
        problem={"p": 4.0, "alpha": 3.0, "delta": 0.4, "h": "1 + dist^4"},
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--radii", "4,8"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "R,gamma,lambda,tail_bound,converged"
    assert len(lines) == 3
    assert lines[1].startswith("4,") and lines[1].endswith(",true")
    assert lines[2].startswith("8,") and lines[2].endswith(",true")
    gammas = [float(line.split(",")[1]) for line in lines[1:]]
    assert gammas[1] <= gammas[0] + 1e-9
    assert "R=4" in capsys.readouterr().out


def test_sweep_empty_radii(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "radii" in capsys.readouterr().err
    # separators without a number are no radii either
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--radii", ","]) == 2
    assert capsys.readouterr().err == "invalid config: sweep needs a nonempty --radii list\n"


def test_sweep_unsorted_radii(tmp_path, capsys):
    cfg = write_config(
        tmp_path, graph={"family": "lattice_zd_ball", "params": {"d": 1}}
    )
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path), "--radii", "8,4"])
    assert rc == 2
    capsys.readouterr()


def test_sweep_rising_gamma_is_numerical(tmp_path, capsys):
    # small free-boundary balls: gamma_R rises from R = 2 to R = 4
    cfg = write_config(
        tmp_path,
        graph={"family": "lattice_zd_ball", "params": {"d": 1}},
        problem={"p": 4.0, "alpha": 3.0, "delta": 0.4, "h": "1 + dist^4"},
    )
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path), "--radii", "2,4"])
    assert rc == 1
    assert "sweep failed: gamma increased" in capsys.readouterr().err


def test_sweep_unconverged_balls_skip_monotonicity(tmp_path, capsys):
    # unconverged gammas rise from R = 8 to R = 16; only converged balls
    # are compared, so the sweep names the non-convergence instead
    cfg = write_config(
        tmp_path, graph={"family": "path", "params": {"n": 20}}, solver={"max_iters": 2}
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--radii", "4,8,16,32"]) == 1
    assert "sweep failed: not converged at radii [4, 8, 16, 32]" in capsys.readouterr().err
    assert len((out / "sweep.csv").read_text().splitlines()) == 5


def test_truncation_skips_balls_without_constraint_mass(tmp_path, capsys):
    # tail <= 0.9 already at R = 2, but g vanishes there; R = 4 carries g
    cfg = write_config(
        tmp_path,
        graph={"family": "path", "params": {"n": 30}},
        problem={"p": 4.0, "alpha": 3.0, "delta": 0.4, "h": "1 + dist^4",
                 "g": "maximum(dist-3, 0)"},
        truncation={"epsilon": 0.9},
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["truncation"]["radius"] == 4
    assert report["converged"] is True and report["positive"] is True
    capsys.readouterr()


def test_verify_success(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out), "--trials", "300"]) == 0
    data = json.loads((out / "verify.json").read_text())
    assert data["hypotheses"]["passed"] is True
    assert data["inequalities"]["trials"] == 300
    stdout = capsys.readouterr().out
    for name in ("elementary", "gj_pointwise", "holder_embedding", "bd_sup_bound"):
        assert f"{name}: pass" in stdout


def test_failed_inequality_exit_names_it(tmp_path, capsys, monkeypatch):
    import yamabe.cli as cli

    def failing_suite(graph, spec, trials, seed):
        state = {"violations": 1, "max_ratio": 2.0, "passed": False}
        return {"seed": seed, "trials": trials, "passed": False,
                "inequalities": {"bd_sup_bound": state}}

    monkeypatch.setattr(cli, "inequality_suite", failing_suite)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "bd_sup_bound: FAIL" in captured.out
    assert "verify failed: inequalities violated: ['bd_sup_bound']" in captured.err
    assert (out / "verify.json").exists()


def test_unconverged_solve_keeps_its_reports(tmp_path, capsys):
    cfg = write_config(tmp_path, solver={"max_iters": 2})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "converged=False" in captured.out
    assert "solver failure: not converged after 2 iterations" in captured.err
    assert json.loads((out / "report.json").read_text())["converged"] is False
    assert (out / "solution.csv").exists()


def test_stagnated_solve_keeps_its_reports(tmp_path, capsys, monkeypatch):
    # the first line search finds no step, so the descent stops after one
    # iteration: the reports say so and the run fails
    raise_trial_energies(monkeypatch)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    assert "solver failure: not converged after 1 iterations" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False and report["iters"] == 1
    assert (out / "solution.csv").exists()


def test_nonpositive_solve_names_the_reason(tmp_path, capsys):
    # g = 1/(1+dist^2) with h = 1 at p = 2.5, alpha = 2.25: the descent's
    # clamp to the nonnegative cone leaves exact zeros on path30's tail,
    # although the true solution is positive there (1e-10 to 2e-9)
    cfg = write_config(
        tmp_path,
        graph={"family": "path", "params": {"n": 30}},
        problem={"p": 2.5, "alpha": 2.25, "delta": 0.4, "h": 1, "g": "1/(1+dist^2)"},
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    assert "solver failure: solution not positive: min u = 0" in capsys.readouterr().err
    assert json.loads((out / "report.json").read_text())["positive"] is False


def test_underflowing_tail_is_certified_with_a_wrong_tail(tmp_path):
    # h = 1 + dist^24 makes the true p = alpha solution underflow float64 far
    # from x0. The inflow start is floored at the smallest normal float64, so
    # the solve ends positive and certified on its absolute residual, while
    # its tail is wrong in every digit: rel, the relative defect, is about 1
    cfg = write_config(
        tmp_path,
        graph={"family": "path", "params": {"n": 30}},
        problem={"p": 2.5, "alpha": 2.5, "delta": 0.4, "h": "1 + dist^24", "g": 1},
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["positive"] is True and report["converged"] is True
    assert 0.0 < report["min_u"] < 1e-300
    assert report["residual_rel_sup"] > 0.5


def test_verify_malformed_solver_section_is_validation(tmp_path, capsys):
    cfg = write_config(tmp_path, solver=[1])
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert "solver section must be a JSON object" in capsys.readouterr().err
    assert not (out / "verify.json").exists()


def test_verify_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()


def test_explicit_graph_config(tmp_path):
    cfg = write_config(
        tmp_path,
        graph={
            "explicit": {
                "n": 3,
                "edges": [[0, 1, 1.0], [1, 2, 2.0]],
                "mu": [1.0, 1.0, 1.0],
            },
            "x0": 1,
        },
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["n"] == 3


# One exit-code policy for every command: 2 for an invalid config or a
# violated hypothesis, found before any output is written, 1 for a
# numerical failure. Each case: config overrides, the codes of (solve,
# verify, sweep), and the stderr text.
EXIT_CODE_CASES = {
    "alpha_exceeds_p": (
        {"problem": {"p": 3.0, "alpha": 4.0, "delta": 0.4}},
        (2, 2, 2),
        "invalid config: alpha_range: alpha must not exceed p",
    ),
    "list_family_param": (
        {"graph": {"family": "lattice_zd_ball", "params": {"d": [2], "radius": 4}}},
        (2, 2, 2),
        "invalid config: graph param d must be an integer",
    ),
    # sweep does not truncate, so an unreachable epsilon does not stop it
    "unreachable_epsilon": (
        {
            "graph": {"family": "lattice_zd_ball", "params": {"d": 1, "radius": 20}},
            "problem": {"p": 4.0, "alpha": 3.0, "delta": 0.4, "h": "1 + dist^4"},
            "truncation": {"epsilon": 1e-300, "r_max": 5},
        },
        (1, 1, 0),
        "truncation failed: no radius up to 5",
    ),
    "removed_solver_knob": (
        {"solver": {"armijo": 2.0}},
        (2, 2, 2),
        "invalid config: unknown solver keys: ['armijo']",
    ),
    "removed_solver_x0": (
        {"solver": {"x0": 1}},
        (2, 2, 2),
        "invalid config: unknown solver keys: ['x0']",
    ),
    "removed_truncation_x0": (
        {"truncation": {"epsilon": 0.5, "x0": 1}},
        (2, 2, 2),
        "invalid config: unknown truncation keys: ['x0']",
    ),
    "removed_constraint_tol": (
        {"solver": {"constraint_tol": 1e-10}},
        (2, 2, 2),
        "invalid config: unknown solver keys: ['constraint_tol']",
    ),
    # an unconverged run writes its reports, then names the reason
    "unconverged_run": (
        {"graph": {"family": "path", "params": {"n": 20}}, "solver": {"max_iters": 2}},
        (1, 0, 1),
        "not converged",
    ),
    # g vanishes on the radius-4 ball of the sweep, not on the whole path
    "g_vanishes_on_smallest_ball": (
        {
            "graph": {"family": "path", "params": {"n": 30}},
            "problem": {"p": 4.0, "alpha": 3.0, "delta": 0.4, "h": "1 + dist^2",
                        "g": "maximum(dist - 5, 0)"},
        },
        (0, 0, 1),
        "infeasible constraint: g vanishes on every vertex, so K(u) = 1 is empty; "
        "the uniform competitor on the radius-4 ball cannot be put on K = 1",
    ),
    # h and mu are finite, h mu overflows: named before a solve meets J = nan
    # or the suite divides inf by inf
    "hmu_overflows": (
        {
            "graph": {"family": "path", "params": {"n": 5, "mu": 1e300}},
            "problem": {"p": 4.0, "alpha": 3.0, "delta": 0.4, "h": 1e10, "g": 1},
        },
        (2, 2, 2),
        "invalid config: min_hmu: h*mu must be positive everywhere and must not overflow float64",
    ),
    # h = 0 at the anchor: the truncation choice checks the hypotheses
    # before it computes a tail bound from h
    "h_vanishes_under_truncation": (
        {
            "graph": {"family": "path", "params": {"n": 30}},
            "problem": {"p": 4.0, "alpha": 3.0, "delta": 0.4, "h": "dist"},
            "truncation": {"epsilon": 0.5},
        },
        (2, 2, 2),
        "invalid config: min_h: h must be positive and finite everywhere",
    ),
    # h vanishes on the sweep's universe but on neither of its balls
    "h_vanishes_beyond_every_ball": (
        {
            "graph": {"family": "path", "params": {"n": 40}},
            "problem": {"p": 4.0, "alpha": 3.0, "delta": 0.4, "h": "maximum(12-dist, 0)"},
        },
        (2, 2, 2),
        "invalid config: min_h: h must be positive and finite everywhere",
    ),
    # an explicit graph's x0 past its vertices, named with n before any distance is asked for
    "explicit_x0_out_of_range": (
        {"graph": {"explicit": {"n": 4, "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0]]}, "x0": 9}},
        (2, 2, 2),
        "invalid config: graph param x0 must be a vertex 0..3 of n = 4, got 9",
    ),
    "explicit_x0_negative": (
        {"graph": {"explicit": {"n": 4, "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0]]}, "x0": -1}},
        (2, 2, 2),
        "invalid config: graph param x0 must be a vertex 0..3 of n = 4, got -1",
    ),
    "unknown_truncation_key": (
        {"truncation": {"bogus": 1}},
        (2, 2, 2),
        "invalid config: unknown truncation keys: ['bogus']",
    ),
    # not an object: the whole file
    "root_not_an_object": (
        [{"graph": {"family": "path", "params": {"n": 12}}}],
        (2, 2, 2),
        "invalid config: config root must be a JSON object",
    ),
    "no_graph_section": (
        {"graph": None},
        (2, 2, 2),
        "invalid config: config needs a graph section",
    ),
    "graph_without_family": (
        {"graph": {"params": {"n": 12}}},
        (2, 2, 2),
        "invalid config: graph section needs a family name or an explicit graph",
    ),
    "graph_params_not_an_object": (
        {"graph": {"family": "path", "params": [12]}},
        (2, 2, 2),
        "invalid config: graph params must be a JSON object",
    ),
    "problem_without_p": (
        {"problem": {"alpha": 3.0, "delta": 0.4}},
        (2, 2, 2),
        "invalid config: problem section needs p",
    ),
    "empty_truncation": (
        {"truncation": {}},
        (2, 2, 2),
        "invalid config: truncation section needs epsilon",
    ),
}


@pytest.mark.parametrize("command", ["solve", "verify", "sweep"])
@pytest.mark.parametrize("case", sorted(EXIT_CODE_CASES))
def test_exit_code_policy(tmp_path, capsys, case, command):
    overrides, codes, message = EXIT_CODE_CASES[case]
    expected = codes[("solve", "verify", "sweep").index(command)]
    if isinstance(overrides, dict):
        cfg = write_config(tmp_path, **overrides)
    else:
        cfg = str(tmp_path / "config.json")
        Path(cfg).write_text(json.dumps(overrides))
    extra = {"solve": [], "sweep": ["--radii", "4,8"], "verify": ["--trials", "20"]}[command]
    out = tmp_path / "out"
    argv = [command, "--config", cfg, "--out", str(out)] + extra
    assert main(argv) == expected
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if expected:
        assert message in err
    if expected == 2:
        assert not out.exists()


# Configs that ran a problem other than the one written, or failed
# numerically, before every config value was checked. Each: config
# overrides and the key the error names.
_EXPLICIT = {"n": 3, "edges": [[0, 1, 1.0], [1, 2, 2.0]]}
_PROBLEM = {"p": 4.0, "alpha": 3.0, "delta": 0.4, "h": "1 + dist^2", "g": 1}


def _formula_case(formula):
    """h outside the formula grammar: the error names the formula and the grammar."""
    return ({"problem": {**_PROBLEM, "h": formula}},
            f"field formula {formula!r} is not in the grammar: numbers (as floats), the names dist")


INVALID_VALUE_CASES = {
    "misspelled_param": ({"graph": {"family": "path", "params": {"n": 12, "wieght": 5}}}, "wieght"),
    "x0_param_of_a_family": ({"graph": {"family": "path", "params": {"n": 12, "x0": 5}}}, "x0"),
    "x0_beside_a_family": ({"graph": {"family": "path", "params": {"n": 12}, "x0": 5}}, "x0"),
    "family_beside_explicit": ({"graph": {"family": "path", "explicit": _EXPLICIT}}, "family"),
    "fractional_size": ({"graph": {"family": "path", "params": {"n": 8.9}}}, "n"),
    "stray_graph_key": ({"graph": {"family": "path", "params": {"n": 12}, "bogus": 1}}, "bogus"),
    "stray_family_param": ({"graph": {"family": "path", "params": {"n": 12, "bogus": 1}}}, "bogus"),
    "string_weight": ({"graph": {"family": "path", "params": {"n": 12, "weight": "2"}}}, "weight"),
    "string_vertex_ids": (
        {"graph": {"explicit": {"n": 2, "edges": [["0", "1", "1.0"]]}}}, "edges"),
    "boolean_x0": ({"graph": {"explicit": _EXPLICIT, "x0": True}}, "x0"),
    "boolean_max_iters": ({"solver": {"max_iters": True}}, "max_iters"),
    "fractional_max_iters": ({"solver": {"max_iters": 100.9}}, "max_iters"),
    "string_seed": ({"solver": {"seed": "0"}}, "seed"),
    "string_grad_tol": ({"solver": {"grad_tol": "1e-8"}}, "grad_tol"),
    "string_p": ({"problem": {**_PROBLEM, "p": "4"}}, "problem p"),
    "boolean_theta": ({"problem": {**_PROBLEM, "theta": True}}, "theta"),
    "fractional_r_max": (
        {"graph": {"family": "lattice_zd_ball", "params": {"d": 1}},
         "truncation": {"epsilon": 0.5, "r_max": 6.5}},
        "r_max",
    ),
    "string_epsilon": ({"truncation": {"epsilon": "0.5"}}, "epsilon"),
    "boolean_weight": ({"graph": {"family": "path", "params": {"n": 12, "weight": True}}}, "weight"),
    "boolean_mu": ({"graph": {"family": "path", "params": {"n": 12, "mu": True}}}, "mu"),
    "boolean_in_mu_list": (
        {"graph": {"explicit": {**_EXPLICIT, "mu": [1.0, True, 2.0]}}}, "mu"),
    "boolean_edge_weight": (
        {"graph": {"explicit": {"n": 3, "edges": [[0, 1, 1.0], [1, 2, True]]}}}, "weight"),
    # a per-vertex h read true as 1.0 and "2" as 2.0
    "boolean_and_string_in_h_list": (
        {"graph": {"explicit": _EXPLICIT}, "problem": {**_PROBLEM, "h": [True, 1, "2"]}},
        "h must be numeric: got a string"),
    "boolean_in_g_list": (
        {"graph": {"explicit": _EXPLICIT}, "problem": {**_PROBLEM, "g": [1.0, False, 1.0]}},
        "g must be numeric: got a boolean"),
    "negative_weight_on_one_vertex": (
        {"graph": {"family": "path", "params": {"n": 1, "weight": -1}}}, "weight"),
    # "1j" ended in a TypeError traceback, and "True + dist" solved as 1 + dist
    "complex_formula": _formula_case("1j"),
    "boolean_in_formula": _formula_case("True + dist"),
    "attribute_in_formula": _formula_case("dist.size"),
    "method_in_formula": _formula_case("dist.mean()"),
    "ufunc_method_in_formula": _formula_case("maximum.reduce(dist)"),
    "matmul_in_formula": _formula_case("dist @ dist"),
    # h = +inf at the anchor passed every hypothesis, then failed in the descent
    "infinite_h": ({"problem": {**_PROBLEM, "h": "1 + 1/dist"}},
                   "min_h: h must be positive and finite everywhere"),
}


@pytest.mark.parametrize("case", sorted(INVALID_VALUE_CASES))
def test_invalid_values_exit_2_naming_the_key(tmp_path, capsys, case):
    overrides, key = INVALID_VALUE_CASES[case]
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    for command, extra in (("solve", []), ("verify", ["--trials", "20"]), ("sweep", ["--radii", "4,8"])):
        assert main([command, "--config", cfg, "--out", str(out)] + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid config:") and key in err, err
        assert not out.exists()


def readme_config(tmp_path):
    """Write the README's JSON config block to a file; return its path."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```json\n(.*?)```", readme, re.DOTALL).group(1)
    cfg = tmp_path / "config.json"
    cfg.write_text(block)
    return cfg


def test_readme_config_runs_as_documented(tmp_path, capsys):
    # the README's config sizes its lattice by the truncation's r_max
    cfg = readme_config(tmp_path)
    for command, extra in (
        ("solve", []),
        ("verify", ["--trials", "20"]),
        ("sweep", ["--radii", "4,8,16,32"]),
    ):
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / command)] + extra
        assert main(argv) == 0, capsys.readouterr().err
    report = json.loads((tmp_path / "solve" / "report.json").read_text())
    assert report["converged"] is True and report["positive"] is True
    assert report["n"] == 2 * report["truncation"]["radius"] + 1
    capsys.readouterr()


def test_readme_solve_runs_one_search(tmp_path, monkeypatch, capsys):
    # the universe's builder states its anchor's distances; the coefficients,
    # the tails, the cut and the ball's start reuse them, so nothing searches
    counts = count_calls(monkeypatch, _bfs)
    cfg = readme_config(tmp_path)
    argv = ["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert main(argv) == 0, capsys.readouterr().err
    assert counts["_bfs"] == 0


# floats whose 17-digit text is easy to get wrong: a signed zero, the
# smallest subnormal, a near-overflow, an exact and an inexact decimal
CSV_FLOATS = [-0.0, 5e-324, 1e308, 1.0, 0.1, -1e-300, 1.0 / 3.0]


def csv_writer_bytes(header, rows):
    """The CSV files' former rendering: csv.writer with _fmt's floats."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [format(float(v), ".17g") if isinstance(v, float) else v for v in row] for row in rows
    )
    return buf.getvalue().encode()


def test_solution_csv_is_the_csv_writer_rendering(tmp_path, monkeypatch, capsys):
    real_solve = cli.solve
    written = {}

    def solve(graph, spec, opts):
        res = real_solve(graph, spec, opts)
        k = len(CSV_FLOATS)
        written["u"] = np.concatenate([CSV_FLOATS, res.u[k:]])
        written["residual"] = np.concatenate([CSV_FLOATS[::-1], res.residual[k:]])
        return replace(res, **written)

    monkeypatch.setattr(cli, "solve", solve)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    want = csv_writer_bytes(
        ["vertex", "u", "residual"],
        [[x, float(v), float(r)] for x, (v, r) in enumerate(zip(written["u"], written["residual"]))],
    )
    assert (out / "solution.csv").read_bytes() == want
    assert b"\n0,-0,0.33333333333333331\n1,4.9406564584124654e-324,-1e-300\n" in want
    capsys.readouterr()


def test_sweep_csv_is_the_csv_writer_rendering(tmp_path, monkeypatch, capsys):
    # numpy floats and Python floats, a tail bound of inf, an unconverged ball
    values = [np.float64(0.1), *CSV_FLOATS, np.inf]
    rows = [
        {"R": 4 * (k + 1), "gamma": values[k], "lambda": values[-1 - k],
         "tail_bound": values[(k + 3) % len(values)], "converged": k != 5}
        for k in range(len(values))
    ]
    monkeypatch.setattr(cli, "exhaustion_study", lambda *args: {"rows": rows})
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--radii", "4,8"]) == 1
    assert "not converged at radii [24]" in capsys.readouterr().err
    want = csv_writer_bytes(
        ["R", "gamma", "lambda", "tail_bound", "converged"],
        [[row["R"], float(row["gamma"]), float(row["lambda"]), float(row["tail_bound"]),
          "true" if row["converged"] else "false"] for row in rows],
    )
    assert (out / "sweep.csv").read_bytes() == want
    assert b",inf," in want and b"4.9406564584124654e-324" in want and b",false\n" in want


def test_dumps17_serializer():
    text = dumps17({"a": True, "b": 2, "c": 0.1, "d": None, "e": [1.5], "f": "x"})
    parsed = json.loads(text)
    assert parsed == {"a": True, "b": 2, "c": 0.1, "d": None, "e": [1.5], "f": "x"}
    assert "0.10000000000000001" in text
    assert dumps17(np.float64(0.1)) == "0.10000000000000001"
    assert dumps17(np.array([1.0, 2.0])) == dumps17([1.0, 2.0])
    with pytest.raises(TypeError):
        dumps17(object())
    # non-finite floats as json.dumps writes them, which json.loads reads back
    for value in (float("inf"), -float("inf")):
        assert json.loads(dumps17(value)) == value
    assert np.isnan(json.loads(dumps17({"x": np.float64("nan")}))["x"])


def test_solve_report_parses_when_the_plain_l2_sum_overflows(tmp_path, capsys):
    # the constant eigenfunction starts exact, but mu r^2 overflows at h = 1e300
    problem = {"p": 4.0, "alpha": 4.0, "delta": 0.4, "h": 1e300, "g": 1}
    cfg = write_config(tmp_path, graph={"family": "path", "params": {"n": 5}}, problem=problem)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    assert "not converged" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["iters"] == 0 and np.isfinite(report["residual_l2"])


def test_solve_float64_edge_and_infinite_theta_exit_codes(tmp_path, capsys):
    # theta = 1e-300 is a valid instance whose start has J past float64
    problem = {"p": 4.0, "alpha": 3.0, "delta": 0.4, "theta": 1e-300, "h": 1, "g": 1}
    cfg = write_config(tmp_path, graph={"family": "path", "params": {"n": 5}}, problem=problem)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "infeasible constraint: the energy J of the descent's start overflows float64" in err
    # "theta": 1e400 reads as inf, which the hypotheses reject
    text = Path(cfg).read_text().replace("1e-300", "1e400")
    Path(cfg).write_text(text)
    assert json.loads(text)["problem"]["theta"] == float("inf")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out2")]) == 2
    assert "theta_positive" in capsys.readouterr().err


@pytest.mark.skipif(shutil.which("yamabe") is None, reason="console script not on PATH")
def test_console_script_smoke(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    proc = subprocess.run(
        ["yamabe", "solve", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "gamma=" in proc.stdout
    assert (out / "report.json").exists()
