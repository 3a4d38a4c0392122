"""Shared helpers: random connected graphs with controlled weight ranges,
and call counting at every binding of a package function."""

import sys
from collections import Counter

import numpy as np

from yamabe import ProblemSpec, WeightedGraph


def constant_spec(graph, p=4.0, alpha=3.0, delta=0.4, theta=1.0, h=1.0, g_coef=1.0):
    """The problem with constant h and g on the graph's vertices, as float64 arrays."""
    return ProblemSpec(
        p=p,
        alpha=alpha,
        delta=delta,
        theta=theta,
        h=np.broadcast_to(np.float64(h), (graph.n,)).copy(),
        g=np.broadcast_to(np.float64(g_coef), (graph.n,)).copy(),
    )


def random_connected_graph(rng, n_max=30, n_min=2):
    """Random connected graph with weights in (0, 2] and measure in (0.1, 2].

    A random spanning tree guarantees connectedness; extra edges are
    sprinkled on top and deduplicated.
    """
    n = int(rng.integers(n_min, n_max + 1))
    seen = set()
    edges = []

    def add(x, y):
        key = (min(x, y), max(x, y))
        if x == y or key in seen:
            return
        seen.add(key)
        # 2 - U[0, 2) lands in (0, 2]
        edges.append((key[0], key[1], 2.0 - float(rng.uniform(0.0, 2.0))))

    for v in range(1, n):
        add(int(rng.integers(0, v)), v)
    for _ in range(int(rng.integers(0, n + 1))):
        add(int(rng.integers(0, n)), int(rng.integers(0, n)))
    mu = 2.0 - rng.uniform(0.0, 1.9, size=n)
    return WeightedGraph.from_edges(n, edges, mu=mu)


def random_positive_spec_fields(rng, n):
    """Positive h and nonnegative g with a guaranteed positive entry."""
    h = np.exp(rng.uniform(-1.0, 1.0, n))
    g = np.maximum(rng.uniform(-0.5, 1.5, n), 0.0)
    g[int(rng.integers(0, n))] = 1.0
    return h, g


def count_calls(monkeypatch, *functions):
    """Count calls of each function at every place a yamabe module binds it,
    including the entries of a dispatch table (a module-level dict of tuples,
    such as ``graph._FAMILIES``)."""
    counts = Counter()
    for fn in functions:
        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "yamabe" or name.startswith("yamabe."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, key, counted)
                    elif isinstance(value, dict):
                        for entry_key, entry in list(value.items()):
                            if isinstance(entry, tuple) and any(e is fn for e in entry):
                                swapped = tuple(counted if e is fn else e for e in entry)
                                monkeypatch.setitem(value, entry_key, swapped)
    return counts


def record_accepted_iterates(monkeypatch):
    """Record (sup u, J) of every iterate the descent checks.

    ``solver._check_sup_bound`` runs on the start of each descent and on
    every accepted iterate, so the list holds exactly those, in order.
    """
    import yamabe.solver as solver

    seen = []
    check = solver._check_sup_bound

    def recording(spec, u, j, min_hmu):
        seen.append((float(u.max()), j))
        return check(spec, u, j, min_hmu)

    monkeypatch.setattr(solver, "_check_sup_bound", recording)
    return seen


def raise_trial_energies(monkeypatch):
    """Make ``solver.energy_J`` add 1 to every energy after the first, the
    descent's start: no line-search trial can then lower J."""
    import yamabe.solver as solver

    energy, calls = solver.energy_J, []

    def raised(g, spec, u):
        calls.append(None)
        return energy(g, spec, u) + (1.0 if len(calls) > 1 else 0.0)

    monkeypatch.setattr(solver, "energy_J", raised)
