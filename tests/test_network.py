"""Contact-network generation and the stochastic agent-based runs."""

import itertools

import numpy as np
import pytest
from scipy import stats

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
    assert graph.owner.size // 2 == 1
    assert graph.owner.tolist() == [0, 1] and graph.neighbor.tolist() == [1, 0]
    assert not graph.owner.flags.writeable and not graph.neighbor.flags.writeable


def test_ba_edge_count_formula():
    assert generate_ba_graph(150, 1, seed=1).owner.size // 2 == 149
    assert generate_ba_graph(10, 3, seed=1).owner.size // 2 == 3 * 4 // 2 + 6 * 3
    graph = generate_ba_graph(150, 1, seed=2)
    mean_degree = 2 * (graph.owner.size // 2) / graph.n
    assert mean_degree == pytest.approx(2.0, abs=0.02)


def test_ba_rejects_bad_sizes():
    with pytest.raises(ParameterError):
        generate_ba_graph(3, 3, seed=0)
    with pytest.raises(ParameterError):
        generate_ba_graph(5, 0, seed=0)


def test_ba_graph_is_simple_symmetric_connected():
    graph = generate_ba_graph(80, 2, seed=3)
    pairs = list(zip(graph.owner.tolist(), graph.neighbor.tolist()))
    assert all(a != b for a, b in pairs)
    assert len(set(pairs)) == len(pairs)
    assert {(b, a) for a, b in pairs} == set(pairs)
    seen = frontier = {0}
    while frontier:
        frontier = {b for a, b in pairs if a in frontier} - seen
        seen = seen | frontier
    assert len(seen) == graph.n


def _reference_edges(n, m, rng):
    """(owner, neighbor) grown with rng.choice, the sampler the generator must match,
    in the generator's layout: the (m+1)-clique's edges (a ascending, then b != a
    ascending), then (new, pick) in draw order, then the same pairs reversed."""
    clique = [(a, b) for a in range(m + 1) for b in range(m + 1) if b != a]
    degrees = np.bincount([a for a, _ in clique], minlength=n)
    arrivals = []
    for new in range(m + 1, n):
        weights = degrees[:new] / degrees[:new].sum()
        for t in rng.choice(new, size=m, replace=False, p=weights):
            arrivals.append((new, int(t)))
            degrees[new] += 1
            degrees[t] += 1
    pairs = clique + arrivals + [(b, a) for a, b in arrivals]
    return np.array([a for a, _ in pairs]), np.array([b for _, b in pairs])


def _same_edges(graph, edges):
    return np.array_equal(graph.owner, edges[0]) and np.array_equal(graph.neighbor, edges[1])


def _neighbor_lists(graph):
    """Per-node neighbor lists, read off the dense reference adjacency."""
    return [np.flatnonzero(row).tolist() for row in graph.adjacency_matrix()]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_ba_sampler_matches_numpy_choice(m):
    # same graphs and the same generator state afterwards, so every later
    # draw of a run is unchanged too; small n makes repeated draws common
    for seed in range(600):
        n = m + 2 + seed % 17
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _same_edges(generate_ba_graph(n, m, ours), _reference_edges(n, m, reference))
        assert ours.bit_generator.state == reference.bit_generator.state


def test_ba_sampler_matches_numpy_choice_at_large_n():
    # at a few hundred nodes the certified pick decides almost every node
    for seed, n in enumerate((300, 380, 460, 500)):
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _same_edges(generate_ba_graph(n, 2, ours), _reference_edges(n, 2, reference))
        assert ours.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("m", [2, 3])
def test_ba_exact_path_matches_numpy_choice(monkeypatch, m):
    # with a certification margin wider than the cdf, every round takes the exact cdf
    monkeypatch.setattr(network, "_PICK_ULP", 1.0)
    rounds = []
    choose = network._choose_distinct
    monkeypatch.setattr(network, "_choose_distinct",
                        lambda *args: rounds.append(1) or choose(*args))
    for seed in range(40):
        n = m + 2 + seed * 3
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _same_edges(generate_ba_graph(n, m, ours), _reference_edges(n, m, reference))
        assert ours.bit_generator.state == reference.bit_generator.state
        assert len(rounds) == n - m - 1
        rounds.clear()


@pytest.mark.parametrize("m", [2, 3])
def test_ba_deep_tree_matches_exact_path(monkeypatch, m):
    # at n = 10^4 the degree tree is 14 levels deep, uniforms come in blocks of
    # _DRAW_BLOCK, and a redraw takes its uniforms from inside a block; growing with
    # every round on the exact cdf, and blocks of 5, must give the same graph and
    # generator state
    n = 10_000
    choose = network._choose_distinct
    redraws, rounds = [], []
    draw_block = network._Draws.random
    monkeypatch.setattr(network._Draws, "random",
                        lambda self, shape: redraws.append(1) or draw_block(self, shape))
    monkeypatch.setattr(network, "_choose_distinct",
                        lambda *args: rounds.append(1) or choose(*args))
    fast = np.random.default_rng(m)
    edges = network._grow_ba_edges(n, m, [fast])
    assert 0 < len(rounds) < n // 100 and redraws
    rounds.clear()
    monkeypatch.setattr(network, "_PICK_ULP", 1.0)
    monkeypatch.setattr(network, "_DRAW_BLOCK", 5)
    exact = np.random.default_rng(m)
    for ours, reference in zip(edges, network._grow_ba_edges(n, m, [exact])):
        assert np.array_equal(ours, reference)
    assert fast.bit_generator.state == exact.bit_generator.state
    assert len(rounds) == n - m - 1


def test_certified_round_matches_float_cdf():
    # a round the margin certifies picks what _choose_distinct's float cdf picks. Uniforms
    # sit within a few cdf rounding errors or a few margins of an interval's end, or at the
    # extreme draws 0.0 and 1 - 2**-53, which are never certified
    rng = np.random.default_rng(31)
    eps = 2.0**-53
    outcomes = []
    for _ in range(400):
        new = int(rng.integers(3, 5000))
        degrees = np.floor(rng.pareto(1.2, new) + 2.0)
        cum = np.concatenate([[0.0], degrees.cumsum()])
        total = int(cum[new])
        margin = (2 * new + 8) * 4 * eps
        ends = cum[rng.integers(1, new, 2)] / total
        x = ends + np.where(rng.random(2) < 0.5, 4 * new * eps * rng.uniform(-1, 1, 2),
                            margin * rng.uniform(-3, 3, 2))
        if rng.random() < 0.1:
            x[rng.integers(2)] = rng.choice([0.0, 1.0 - eps])
        x = np.clip(x, 0.0, 1.0 - eps)
        got = network._certified_round(network._DegreeStore(degrees), new, x.tolist(), total)
        if (x == 0.0).any() or (x == 1.0 - eps).any():
            assert got is None
        cdf = (degrees / total).cumsum()
        cdf /= cdf[-1]
        if got is not None:
            assert got == cdf.searchsorted(x, side="right").tolist()
        outcomes.append(got is not None)
    assert 0.05 < np.mean(outcomes) < 0.5


@pytest.mark.parametrize("new", [2, 3, 64, 1000, 4096])
def test_certified_round_extreme_uniforms_on_power_of_two_total(new):
    # T = 2**k: u*T is then exact, and u = 1 - 2**-53 falls 2**(k-53) below T, in
    # the last node's interval. Neither it nor u = 0.0 is certified, and the store
    # holds exactly the new nodes, so a read past its end would raise IndexError
    degrees = np.floor(np.random.default_rng(new).pareto(1.2, new) + 1.0)
    degrees[-1] = 0.0
    degrees[-1] = 2.0 ** int(degrees.sum()).bit_length() - degrees.sum()
    total = int(degrees.sum())
    assert total & (total - 1) == 0 and degrees.min() >= 1
    store = network._DegreeStore(degrees)
    for x in ([1.0 - 2.0**-53], [0.0], [0.0, 1.0 - 2.0**-53]):
        assert network._certified_round(store, new, x, total) is None
    cdf = (degrees / total).cumsum()
    cdf /= cdf[-1]
    assert cdf.searchsorted([0.0, 1.0 - 2.0**-53], side="right").tolist() == [0, new - 1]


def test_ba_degree_distribution_heavy_tailed():
    # preferential attachment keeps most nodes at the minimum degree while a
    # few hubs absorb the rest; the graphs of generate_ba_graph(150, 1, seed=g),
    # grown in one batch
    n = 150
    owner, _ = network._grow_ba_edges(n, 1, [np.random.default_rng(g) for g in range(1000)])
    degrees = np.array([np.bincount(row, minlength=n) for row in owner])
    assert (degrees == 1).mean() > (degrees == 4).mean()


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
    graph = ContactGraph(n=3, owner=np.array([1, 2]), neighbor=np.array([2, 1]))
    statuses = np.array([S, IE, S], dtype=np.int8)
    rng = np.random.default_rng(2)
    params = ModelParams(beta_x=0.0, beta_e=0.9, gamma=0.05)
    for _ in range(200):
        statuses = step(graph, statuses, params, rng)
        assert statuses[0] == S


def test_any_neighbor_matches_dense_adjacency():
    rng = np.random.default_rng(11)
    graphs = [ContactGraph(n=3, owner=np.array([1, 2]), neighbor=np.array([2, 1])),
              generate_ba_graph(60, 1, seed=12), generate_ba_graph(60, 3, seed=13)]
    for graph in graphs:
        adj = graph.adjacency_matrix()
        for _ in range(50):
            infected = rng.random(graph.n) < rng.random()
            flags = network._any_neighbor(graph.owner, graph.neighbor, infected)
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


@pytest.mark.parametrize("bad", [7, -1, 300, 1.5, np.nan])
def test_bad_statuses_rejected(bad):
    # values outside NodeStatus, and non-integer ones, are errors, not wrapped,
    # truncated or left to overflow
    graph = generate_ba_graph(10, 1, seed=10)
    params = ModelParams(0.1, 0.1, 0.1)
    statuses = np.zeros(10).tolist()
    statuses[4] = bad
    starts = [statuses, np.array(statuses)]
    if float(bad).is_integer():
        starts.append(np.array(statuses, dtype=np.int64))
    for start in starts:
        with pytest.raises(ParameterError, match="NodeStatus"):
            run_simulation(graph, params, np.random.default_rng(0), initial_statuses=start)
        with pytest.raises(ParameterError, match="NodeStatus"):
            step(graph, start, params, np.random.default_rng(0))


def test_whole_number_statuses_accepted():
    graph = generate_ba_graph(10, 1, seed=10)
    params = ModelParams(0.1, 0.1, 0.1)
    start = np.arange(10) % 4
    for statuses in (start, start.astype(float), start.tolist()):
        ours, reference = np.random.default_rng(5), np.random.default_rng(5)
        out = step(graph, statuses, params, ours)
        assert out.dtype == np.int8
        assert np.array_equal(out, step(graph, start.astype(np.int8), params, reference))


def test_rates_above_one_rejected():
    graph = generate_ba_graph(10, 1, seed=10)
    for params in (ModelParams(1.5, 0.1, 0.1), ModelParams(0.1, 2.0, 0.1),
                   ModelParams(0.1, 0.1, 1.0001)):
        with pytest.raises(ParameterError, match=r"\[0, 1\]"):
            run_simulation(graph, params, np.random.default_rng(0))
        with pytest.raises(ParameterError, match=r"\[0, 1\]"):
            step(graph, np.zeros(10, dtype=np.int8), params, np.random.default_rng(0))
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
            neighbors = _neighbor_lists(ContactGraph(n, *_reference_edges(n, m, rng)))
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
        endo, exo = _reference_run(_neighbor_lists(graph), params, reference, max_ticks,
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
            got, _reference_step(_neighbor_lists(graph), statuses, params, reference))
        assert ours.bit_generator.state == reference.bit_generator.state
        statuses = np.where(got == R, S, got).astype(np.int8)


# --- law-based oracles: any correct draw layout passes these ---

def test_exogenous_channel_alone_follows_the_two_step_chain():
    # With beta_e = 0 every node is an independent chain: S turns IX with probability
    # beta_x per tick, and IX turns R with probability gamma, never in the tick of its
    # infection. So P(IX at t) = p_t = sum_(j=1..t) (1-beta_x)^(j-1) beta_x (1-gamma)^(t-j),
    # and while no run stops, exo_series[t] summed over the runs is Binomial(runs n, p_t).
    # The mean over runs must lie within z sqrt(n p_t (1-p_t) / runs) of n p_t, with
    # z = 5.52 = norm.isf(1e-6 / 60): two-sided, Bonferroni over 30 ticks, family alpha
    # 1e-6. The stop rule ends a run at a tick with no infected node, at tick t with
    # probability (1-p_t)^n; sum_t (1-p_t)^n = 1.4e-7 bounds a run's chance of stopping,
    # which moves a mean by about n * 1.4e-7 = 2e-5, against a tolerance of at least 1.0.
    n, runs, ticks = 150, 400, 30
    beta_x = gamma = 0.1
    graph = generate_ba_graph(n, 1, seed=0)
    params = ModelParams(beta_x=beta_x, beta_e=0.0, gamma=gamma)
    outcomes = [run_simulation(graph, params, np.random.default_rng(seed), max_ticks=ticks)
                for seed in range(runs)]
    assert all(not outcome.endo_series.any() for outcome in outcomes)
    assert all(outcome.exo_series.size == ticks + 1 for outcome in outcomes)
    p = np.array([sum((1 - beta_x) ** (j - 1) * beta_x * (1 - gamma) ** (t - j)
                      for j in range(1, t + 1)) for t in range(1, ticks + 1)])
    mean = np.mean([outcome.exo_series[1:] for outcome in outcomes], axis=0)
    z = np.abs(mean - n * p) / np.sqrt(n * p * (1 - p) / runs)
    assert z.max() < 5.52, z


def test_one_tick_on_a_star_follows_the_hub_probabilities():
    # A susceptible hub with k infected leaves, k = 0..4, is next IX with probability
    # beta_x, IE with (1-beta_x) p(k) and S otherwise. Today p(k) = 1-(1-beta_e)^min(k, 1):
    # the step counts any number of infected neighbours as one. Per k, 2000 steps on one
    # fixed generator; Pearson's chi-square over the outcomes of positive probability
    # must stay below chi2.isf(alpha / 5, df), Bonferroni over the five k for a family
    # alpha of 1e-6, and an outcome of probability 0 must not occur at all
    beta_x, beta_e, leaves, trials, alpha = 0.2, 0.3, 4, 2000, 1e-6
    hub_edges = np.zeros(leaves, dtype=np.intp), np.arange(1, leaves + 1)
    graph = ContactGraph(leaves + 1, np.concatenate(hub_edges), np.concatenate(hub_edges[::-1]))
    params = ModelParams(beta_x=beta_x, beta_e=beta_e, gamma=0.5)
    for k in range(leaves + 1):
        statuses = np.full(leaves + 1, S, dtype=np.int8)
        statuses[1:k + 1] = [IE, IX, IE, IX][:k]
        rng = np.random.default_rng(k)
        hub = np.array([step(graph, statuses, params, rng)[0] for _ in range(trials)])
        p_endo = 1 - (1 - beta_e) ** min(k, 1)
        expected = trials * np.array([beta_x, (1 - beta_x) * p_endo, (1 - beta_x) * (1 - p_endo)])
        observed = np.array([(hub == status).sum() for status in (IX, IE, S)])
        assert observed.sum() == trials
        possible = expected > 0
        assert not observed[~possible].any(), (k, observed)
        chi_square = ((observed - expected)[possible] ** 2 / expected[possible]).sum()
        assert chi_square < stats.chi2.isf(alpha / 5, possible.sum() - 1), (k, observed)
