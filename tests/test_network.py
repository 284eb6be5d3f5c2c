"""Contact-network generation and the stochastic agent-based runs."""

import itertools

import numpy as np
import pytest

from exosir import network
from exosir.errors import ParameterError
from exosir.model import ModelParams
from exosir.network import (ContactGraph, NodeStatus, generate_ba_graph,
                            run_experiment, run_simulation, step)

S, IE, IX, R = (NodeStatus.SUSCEPTIBLE, NodeStatus.INFECTED_ENDO,
                NodeStatus.INFECTED_EXO, NodeStatus.RECOVERED)


# --- graph generation ---

def test_ba_two_nodes_single_edge():
    graph = generate_ba_graph(2, 1, seed=0)
    assert graph.edge_count() == 1
    assert graph.neighbors == ((1,), (0,))


def test_ba_edge_count_formula():
    assert generate_ba_graph(150, 1, seed=1).edge_count() == 149
    assert generate_ba_graph(10, 3, seed=1).edge_count() == 3 * 4 // 2 + 6 * 3
    graph = generate_ba_graph(150, 1, seed=2)
    mean_degree = 2 * graph.edge_count() / graph.n
    assert mean_degree == pytest.approx(2.0, abs=0.02)


def test_ba_rejects_bad_sizes():
    with pytest.raises(ParameterError):
        generate_ba_graph(3, 3, seed=0)
    with pytest.raises(ParameterError):
        generate_ba_graph(5, 0, seed=0)


def test_ba_graph_is_simple_symmetric_connected():
    graph = generate_ba_graph(80, 2, seed=3)
    seen = {0}
    stack = [0]
    for node, nbrs in enumerate(graph.neighbors):
        assert node not in nbrs
        assert len(set(nbrs)) == len(nbrs)
        for other in nbrs:
            assert node in graph.neighbors[other]
    while stack:
        for other in graph.neighbors[stack.pop()]:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    assert len(seen) == graph.n


def _reference_neighbors(n, m, rng):
    """Neighbor lists grown with rng.choice, the sampler the generator must match."""
    neighbors = [set() for _ in range(n)]
    degrees = np.zeros(n, dtype=np.int64)
    for a in range(m + 1):
        for b in range(a + 1, m + 1):
            neighbors[a].add(b)
            neighbors[b].add(a)
            degrees[a] += 1
            degrees[b] += 1
    for new in range(m + 1, n):
        weights = degrees[:new] / degrees[:new].sum()
        for t in rng.choice(new, size=m, replace=False, p=weights):
            neighbors[new].add(int(t))
            neighbors[int(t)].add(new)
            degrees[new] += 1
            degrees[t] += 1
    return tuple(tuple(sorted(nb)) for nb in neighbors)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_ba_sampler_matches_numpy_choice(m):
    # same graphs and the same generator state afterwards, so every later
    # draw of a run is unchanged too; small n makes repeated draws common
    for seed in range(600):
        n = m + 2 + seed % 17
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        assert generate_ba_graph(n, m, ours).neighbors == _reference_neighbors(n, m, reference)
        assert ours.bit_generator.state == reference.bit_generator.state


def test_ba_degree_distribution_heavy_tailed():
    # preferential attachment keeps most nodes at the minimum degree while a
    # few hubs absorb the rest
    degree_one = 0
    degree_four = 0
    total = 0
    for g in range(1000):
        graph = generate_ba_graph(150, 1, seed=g)
        degrees = np.array([graph.degree(v) for v in range(graph.n)])
        degree_one += int((degrees == 1).sum())
        degree_four += int((degrees == 4).sum())
        total += graph.n
    assert degree_one / total > degree_four / total


# --- single steps ---

def test_step_beta_x_one_infects_everyone():
    graph = generate_ba_graph(40, 1, seed=4)
    statuses = np.full(40, S, dtype=np.int8)
    out = step(graph, statuses, ModelParams(beta_x=1.0, beta_e=0.0, gamma=0.5),
               np.random.default_rng(0))
    assert (out == IX).all()


def test_step_no_transmission_full_recovery():
    graph = generate_ba_graph(30, 1, seed=5)
    statuses = np.full(30, S, dtype=np.int8)
    statuses[:10] = IE
    statuses[10:15] = IX
    out = step(graph, statuses, ModelParams(beta_x=0.0, beta_e=0.0, gamma=1.0),
               np.random.default_rng(1))
    assert (out[:15] == R).all()
    assert (out[15:] == S).all()


def test_step_isolated_node_never_infected():
    # degree-0 node with no exogenous channel has no infection path
    graph = ContactGraph(n=3, neighbors=((), (2,), (1,)))
    statuses = np.array([S, IE, S], dtype=np.int8)
    rng = np.random.default_rng(2)
    params = ModelParams(beta_x=0.0, beta_e=0.9, gamma=0.05)
    for _ in range(200):
        statuses = step(graph, statuses, params, rng)
        assert statuses[0] == S


def test_any_neighbor_matches_dense_adjacency():
    rng = np.random.default_rng(11)
    graphs = [ContactGraph(n=3, neighbors=((), (2,), (1,))),
              generate_ba_graph(60, 1, seed=12), generate_ba_graph(60, 3, seed=13)]
    for graph in graphs:
        adj = graph.adjacency_matrix()
        for _ in range(50):
            infected = rng.random(graph.n) < rng.random()
            flags = graph.any_neighbor(infected)
            assert flags.dtype == bool
            np.testing.assert_array_equal(flags, adj @ infected)


def test_step_newly_infected_do_not_recover_same_tick():
    graph = generate_ba_graph(25, 1, seed=6)
    statuses = np.full(25, S, dtype=np.int8)
    out = step(graph, statuses, ModelParams(beta_x=1.0, beta_e=0.0, gamma=1.0),
               np.random.default_rng(3))
    assert (out == IX).all()  # recovery applies only to previously infected


def test_step_transitions_stay_legal():
    allowed = {S: {S, IE, IX}, IE: {IE, R}, IX: {IX, R}, R: {R}}
    graph = generate_ba_graph(60, 1, seed=7)
    statuses = np.full(60, S, dtype=np.int8)
    rng = np.random.default_rng(4)
    params = ModelParams(beta_x=0.05, beta_e=0.5, gamma=0.2)
    for _ in range(100):
        after = step(graph, statuses, params, rng)
        for before_status, after_status in zip(statuses, after):
            assert int(after_status) in allowed[int(before_status)]
        assert len(after) == graph.n
        statuses = after


# --- whole runs ---

def test_run_simulation_counts_and_monotonicity():
    graph = generate_ba_graph(100, 1, seed=8)
    rng = np.random.default_rng(5)
    params = ModelParams(beta_x=0.1, beta_e=0.5, gamma=0.3)
    statuses = np.full(100, S, dtype=np.int8)
    susceptible_prev = 100
    recovered_prev = 0
    for _ in range(150):
        statuses = step(graph, statuses, params, rng)
        counts = {status: int((statuses == status).sum()) for status in (S, IE, IX, R)}
        assert sum(counts.values()) == graph.n
        assert counts[S] <= susceptible_prev
        assert counts[R] >= recovered_prev
        susceptible_prev = counts[S]
        recovered_prev = counts[R]


def test_run_simulation_zero_seed_and_termination():
    graph = generate_ba_graph(50, 1, seed=9)
    outcome = run_simulation(graph, ModelParams(beta_x=0.5, beta_e=0.5, gamma=0.9),
                             np.random.default_rng(6), max_ticks=1000)
    assert outcome.endo_series[0] == 0 and outcome.exo_series[0] == 0
    assert outcome.exo_series[1] > 0  # beta_x=0.5 on 50 nodes seeds immediately
    assert outcome.endo_series[-1] + outcome.exo_series[-1] == 0
    assert len(outcome.endo_series) < 1001  # extinction stops the run early
    assert outcome.endo_series.max() <= graph.n
    assert outcome.endo_peak.peak_value == outcome.endo_series.max()
    assert outcome.endo_peak.peak_tick == int(np.argmax(outcome.endo_series))


def test_run_simulation_rejects_bad_shapes():
    graph = generate_ba_graph(10, 1, seed=10)
    with pytest.raises(ParameterError):
        run_simulation(graph, ModelParams(0.1, 0.1, 0.1), np.random.default_rng(0),
                       max_ticks=0)
    with pytest.raises(ParameterError):
        run_simulation(graph, ModelParams(0.1, 0.1, 0.1), np.random.default_rng(0),
                       initial_statuses=np.zeros(4, dtype=np.int8))


def test_rates_above_one_rejected():
    graph = generate_ba_graph(10, 1, seed=10)
    for params in (ModelParams(1.5, 0.1, 0.1), ModelParams(0.1, 2.0, 0.1),
                   ModelParams(0.1, 0.1, 1.0001)):
        with pytest.raises(ParameterError, match=r"\[0, 1\]"):
            run_simulation(graph, params, np.random.default_rng(0))
    with pytest.raises(ParameterError, match="gamma"):
        run_experiment(base_seed=3, reps=1, n=10, gamma_axis=(0.5, 1.5))


def test_run_experiment_shape_and_finite_means():
    summaries = run_experiment(base_seed=3, reps=2, n=25, m=1, max_ticks=200,
                               beta_x_axis=(0.9,), beta_e_axis=(0.1,), gamma_axis=(0.9,))
    assert len(summaries) == 1
    combo = summaries[0]
    assert combo.reps == 2
    assert np.isfinite([combo.mean_endo_peak_value, combo.mean_endo_peak_tick,
                        combo.mean_exo_peak_value, combo.mean_exo_peak_tick]).all()


def test_run_experiment_grid_size():
    summaries = run_experiment(base_seed=3, reps=1, n=12, m=1, max_ticks=60,
                               beta_x_axis=(0.1, 0.9), beta_e_axis=(0.1, 0.9),
                               gamma_axis=(0.5, 0.9))
    assert len(summaries) == 8
    combos = [(c.beta_x, c.beta_e, c.gamma) for c in summaries]
    assert len(set(combos)) == 8


def test_run_experiment_deterministic():
    kwargs = dict(base_seed=17, reps=3, n=30, m=1, max_ticks=200,
                  beta_x_axis=(0.1, 0.5), beta_e_axis=(0.5,), gamma_axis=(0.5,))
    assert run_experiment(**kwargs) == run_experiment(**kwargs)


# --- the batched engine against the per-rep loop it replaced ---

def _reference_step(neighbors, statuses, params, rng):
    """The agent step as first written: three random(n) calls and 1-(1-beta_e)**k."""
    n = len(neighbors)
    infected = (statuses == IE) | (statuses == IX)
    susceptible = statuses == S
    k = np.array([any(infected[j] for j in nbrs) for nbrs in neighbors], dtype=bool)
    u_exo = rng.random(n)
    u_endo = rng.random(n)
    u_rec = rng.random(n)
    exo_hit = susceptible & (u_exo < params.beta_x)
    p_endo = 1.0 - (1.0 - params.beta_e) ** k
    endo_hit = susceptible & ~exo_hit & (u_endo < p_endo)
    recovered = infected & (u_rec < params.gamma)
    out = statuses.copy()
    out[exo_hit] = IX
    out[endo_hit] = IE
    out[recovered] = R
    return out


def _reference_run(neighbors, params, rng, max_ticks, statuses=None):
    """Per-tick endo and exo counts of one run, stepped until extinction or the cap."""
    if statuses is None:
        statuses = np.full(len(neighbors), S, dtype=np.int8)
    endo = [int((statuses == IE).sum())]
    exo = [int((statuses == IX).sum())]
    for _ in range(max_ticks):
        statuses = _reference_step(neighbors, statuses, params, rng)
        endo.append(int((statuses == IE).sum()))
        exo.append(int((statuses == IX).sum()))
        if endo[-1] + exo[-1] == 0:
            break
    return np.array(endo), np.array(exo)


def _reference_experiment(base_seed, reps, n, m, max_ticks, axes):
    """(beta_x, beta_e, gamma, four mean peak statistics, reps) per combination."""
    rows = []
    for ci, (bx, be, g) in enumerate(itertools.product(*axes)):
        peaks = []
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence([base_seed, ci, rep]))
            neighbors = _reference_neighbors(n, m, rng)
            endo, exo = _reference_run(neighbors, ModelParams(bx, be, g), rng, max_ticks)
            peaks.append((endo.max(), endo.argmax(), exo.max(), exo.argmax()))
        rows.append((bx, be, g, *(float(v) for v in np.mean(peaks, axis=0)), reps))
    return rows


_AXES = ((0.03, 0.4), (0.25, 0.77, 1.0), (0.0, 0.15, 0.9))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("reps", [1, 2, 3])
def test_run_experiment_matches_per_rep_reference(m, reps):
    # n = m + 1 grows no node; max_ticks 4 caps runs that are still going
    for n, max_ticks in ((m + 1, 60), (m + 5, 4), (30, 300)):
        got = [(c.beta_x, c.beta_e, c.gamma, c.mean_endo_peak_value, c.mean_endo_peak_tick,
                c.mean_exo_peak_value, c.mean_exo_peak_tick, c.reps)
               for c in run_experiment(base_seed=5 + m, reps=reps, n=n, m=m,
                                       max_ticks=max_ticks, beta_x_axis=_AXES[0],
                                       beta_e_axis=_AXES[1], gamma_axis=_AXES[2])]
        assert got == _reference_experiment(5 + m, reps, n, m, max_ticks, _AXES)


@pytest.mark.parametrize("batch_nodes", [1, 100, 10**6])
def test_run_experiment_independent_of_batch_size(monkeypatch, batch_nodes):
    # one graph per batch, up to everything at once
    monkeypatch.setattr(network, "_BATCH_NODES", batch_nodes)
    got = [(c.beta_x, c.beta_e, c.gamma, c.mean_endo_peak_value, c.mean_endo_peak_tick,
            c.mean_exo_peak_value, c.mean_exo_peak_tick, c.reps)
           for c in run_experiment(base_seed=9, reps=3, n=25, m=1, max_ticks=500,
                                   beta_x_axis=_AXES[0], beta_e_axis=_AXES[1],
                                   gamma_axis=_AXES[2])]
    assert got == _reference_experiment(9, 3, 25, 1, 500, _AXES)


@pytest.mark.parametrize("m", [1, 2])
def test_run_simulation_draws_exactly_three_uniforms_per_node_per_tick(m):
    # a caller's generator ends where the per-tick reference leaves it; the
    # start may hold infected nodes
    for seed in range(12):
        n = m + 1 + 3 * seed
        graph = generate_ba_graph(n, m, seed=seed)
        params = ModelParams(beta_x=0.02 * seed, beta_e=0.6, gamma=0.3)
        start = None if seed % 2 else np.arange(n, dtype=np.int8) % 4
        max_ticks = 3 if seed % 3 == 0 else 1000
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        outcome = run_simulation(graph, params, ours, max_ticks=max_ticks,
                                 initial_statuses=start)
        endo, exo = _reference_run(graph.neighbors, params, reference, max_ticks,
                                   None if start is None else start.copy())
        np.testing.assert_array_equal(outcome.endo_series, endo)
        np.testing.assert_array_equal(outcome.exo_series, exo)
        assert outcome.endo_peak.peak_tick == int(np.argmax(endo))
        assert outcome.exo_peak.peak_value == float(exo.max())
        assert ours.bit_generator.state == reference.bit_generator.state


def test_step_matches_reference_step():
    graph = generate_ba_graph(50, 2, seed=21)
    statuses = np.arange(50, dtype=np.int8) % 4
    ours, reference = np.random.default_rng(22), np.random.default_rng(22)
    for beta_e in (0.0, 0.3, 0.77, 1.0):
        params = ModelParams(beta_x=0.1, beta_e=beta_e, gamma=0.4)
        got = step(graph, statuses, params, ours)
        np.testing.assert_array_equal(
            got, _reference_step(graph.neighbors, statuses, params, reference))
        assert ours.bit_generator.state == reference.bit_generator.state
        statuses = np.where(got == R, S, got).astype(np.int8)
