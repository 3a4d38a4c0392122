"""tools/against_base.py on small synthetic digests and output files, and
its digest's solve sets against tests/instances.py, without solving."""

import importlib.util
import itertools
import json
from pathlib import Path

import instances

TOOL = Path(__file__).resolve().parents[1] / "tools" / "against_base.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("against_base", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


tool = load_tool()


def solves(branches, gamma=1.0, sha="0"):
    """One digest set of len(branches) solves, all alike."""
    n = len(branches)
    return {"sha256": {branch: sha for branch in tool.BRANCHES}, "branch": list(branches),
            "gamma": [gamma] * n, "lambda": [2.0] * n, "iters": [3] * n, "trials": [4] * n,
            "converged": [True] * n, "positive": [True] * n, "rel": [1e-12] * n}


def digest():
    """A digest whose every set has two p = alpha solves, one certified."""
    tally = {"count": 2, "certified": 1, "iters": 7, "rel": [2, 1, 0, 0], "failed": ["x: ..."]}
    return {**{name: solves(["p = alpha"] * 2) for name in tool.SOLVE_SETS},
            "graph": {"path_graph(1,)": "ab"},
            "summary": {name: {"p = alpha": dict(tally)} for name in tool.SOLVE_SETS}}


def test_read_digest_needs_every_set():
    whole = digest()
    assert tool.read_digest(json.dumps(whole)) == whole
    for missing in (*tool.SOLVE_SETS, "graph", "summary"):
        assert tool.read_digest(json.dumps({k: v for k, v in whole.items() if k != missing})) is None
    assert tool.read_digest("Traceback (most recent call last):\n  ...") is None
    assert tool.read_digest("[1, 2]") is None


def test_digest_drift_names_the_sets_and_branches_that_differ():
    base, head = digest(), digest()
    assert tool.digest_drift({"head": head, "base": base}) == []
    head["grid"] = solves(["p = alpha"] * 2, gamma=1.1, sha="1")
    head["grid"]["sha256"]["alpha < p"] = "0"
    head["grid"]["converged"][1] = False
    assert tool.digest_drift({"head": head, "base": base}) == [
        "- grid: p = alpha differs; largest relative change gamma 1.00e-01, lambda 0.00e+00",
        "- grid head: 8 trials, 1 of 2 converged",
        "- grid base: 8 trials, 2 of 2 converged",
    ]


def test_branch_accuracy_prints_each_tally_and_the_manufactured_errors():
    sets = digest()
    sets["summary"]["manufactured"] = {
        "alpha < p": {"count": 2, "certified": 2, "iters": 5, "rel": [1, 0, 0, 0],
                      "failed": [], "u_error": 0.52, "ref_error": 2.3e-14},
        "p = alpha": {"count": 1, "certified": 1, "iters": 9, "rel": [1, 1, 1, 1],
                      "failed": [], "u_error": 1.4, "ref_error": 3.6e-11},
    }
    lines = tool.branch_accuracy({"head": sets})
    # one line per set and branch present; z2_r60 and the rest have no alpha < p here
    assert len(lines) == len(tool.SOLVE_SETS) + 1
    assert lines[0] == ("- grid, p = alpha, head: rel > 1e-10/1e-6/1e-2/0.5 in 2/1/0/0, "
                        "1 of 2 certified positive, 7 iterations")
    assert lines[-2:] == [
        "- manufactured, alpha < p, head: rel > 1e-10/1e-6/1e-2/0.5 in 1/0/0/0, 2 of 2 certified "
        "positive, 5 iterations, worst |u/u_ref - 1| 0.52, worst |gamma/gamma_ref - 1| 2.3e-14",
        "- manufactured, p = alpha, head: rel > 1e-10/1e-6/1e-2/0.5 in 1/1/1/1, 1 of 1 certified "
        "positive, 9 iterations, worst bulk |u/u_ref - 1| 1.4, worst |eigen_factor/Lambda - 1| 3.6e-11",
    ]


def test_columns_of_csv_json_and_other_files():
    assert tool.columns("a/solution.csv", b"vertex,u\n0,1.5\n1,2.5\n") == {
        "vertex": ["0", "1"], "u": ["1.5", "2.5"]}
    assert tool.columns("a/report.json", b'{"gamma": 1.25, "ok": true, "rows": [1], "m": {}}') == {
        "gamma": ["1.25"], "ok": ["True"]}
    assert tool.columns("a/solve.stdout", b"exit 0\n") is None


def test_drift_reports_each_differing_column():
    base = {"r/solution.csv": b"vertex,u,tag\n0,1.0,a\n1,2.0,b\n",
            "r/report.json": b'{"gamma": 2.0, "status": "ok"}',
            "r/solve.stdout": b"exit 0\n", "r/same.csv": b"x\n1\n"}
    assert tool.drift(base, dict(base)) == []
    head = {"r/solution.csv": b"vertex,u,tag\n0,1.0,a\n1,2.2,c\n",
            "r/report.json": b'{"gamma": 2.0, "status": "failed"}',
            "r/solve.stdout": b"exit 1\n", "r/same.csv": b"x\n1\n", "r/new.csv": b"x\n1\n"}
    assert tool.drift(base, head) == [
        "- r/report.json: largest relative difference in status (not numeric)",
        "- r/solution.csv: largest relative difference in u 1.00e-01, tag (not numeric)",
    ]
    head["r/solution.csv"] = b"vertex,v\n0,1.0\n1,2.0\n"
    assert "- r/solution.csv: columns or rows differ" in tool.drift(base, head)


def test_digest_sets_are_the_catalogues_in_hashing_order():
    _, sets = tool.digest_sets()
    assert tuple(sets) == tool.SOLVE_SETS
    want = {
        "grid": (instances.grid(), 180),
        "z2_r60": (instances.z2_r60(), 6),
        "proportional": (instances.proportional(0.0, 1e-3, 1e-1), 96),
        "manufactured": (itertools.chain(instances.alpha_below_p(), instances.p_equals_alpha()), 72),
    }
    for name, chosen in sets.items():
        labels = [instance.label for instance in chosen]
        catalogue, count = want[name]
        assert labels == [instance.label for instance in catalogue], name
        assert len(labels) == len(set(labels)) == count, name
