"""Stochastic agent-based Exo-SIR on a Barabasi-Albert contact network.

Nodes are Susceptible, InfectedEndo, InfectedExo, or Recovered. Susceptible
nodes convert to InfectedExo with probability beta_x per tick (the exogenous
draw comes first); those the exogenous draw misses convert to InfectedEndo
with probability 1-(1-beta_e)^k given k infected neighbors. Infected nodes
recover with probability gamma, but never in the tick they were infected.

One engine serves every entry point. It grows a batch of graphs in one loop
over arriving nodes (_grow_ba_edges) and runs a batch of epidemics in one
loop over ticks (_run_batch), each graph and each run on its own generator.
generate_ba_graph, step and run_simulation are batches of one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

from .errors import ParameterError
from .model import ModelParams, PeakStats

DEFAULT_GRID_AXIS = (0.1, 0.5, 0.9)
DEFAULT_MAX_TICKS = 1000

# Nodes in one batch of run_experiment. It bounds the engine's arrays (a few
# MB) whatever the number of reps; the default grid at 2**18 nodes, one
# batch, ran no faster and peaked 28 MB higher.
_BATCH_NODES = 1 << 16


class NodeStatus(IntEnum):
    SUSCEPTIBLE = 0
    INFECTED_ENDO = 1
    INFECTED_EXO = 2
    RECOVERED = 3


# Plain-int copies for the per-tick loops, where looking up an enum member
# costs more than the array comparison it feeds.
_S, _IE, _IX, _R = (int(status) for status in NodeStatus)


def _any_neighbor(owner: np.ndarray, neighbor: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """True at each node with at least one neighbor set in mask; any shape, indexed flat."""
    out = np.zeros(mask.size, dtype=bool)
    out[owner[mask.ravel()[neighbor]]] = True
    return out.reshape(mask.shape)


@dataclass(frozen=True)
class ContactGraph:
    """Undirected graph as per-node sorted neighbor lists."""

    n: int
    neighbors: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, owner: np.ndarray, neighbor: np.ndarray) -> ContactGraph:
        """The graph of (owner, neighbor) pairs, one per directed edge, in any order."""
        order = np.lexsort((neighbor, owner))
        flat = neighbor[order].tolist()
        ends = np.cumsum(np.bincount(owner, minlength=n)).tolist()
        return cls(n=n, neighbors=tuple(tuple(flat[a:b]) for a, b in zip([0] + ends, ends)))

    def edge_count(self) -> int:
        return sum(len(nb) for nb in self.neighbors) // 2

    def degree(self, node: int) -> int:
        return len(self.neighbors[node])

    def adjacency_matrix(self) -> np.ndarray:
        """Dense boolean n x n adjacency; a reference only, O(n^2) memory."""
        adj = np.zeros((self.n, self.n), dtype=bool)
        for node, nbrs in enumerate(self.neighbors):
            adj[node, list(nbrs)] = True
        return adj

    @cached_property
    def _edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(owner, neighbor) index pairs, one per directed edge, in neighbor-list order."""
        owner = np.repeat(np.arange(self.n), [len(nb) for nb in self.neighbors])
        neighbor = np.fromiter(itertools.chain.from_iterable(self.neighbors),
                               dtype=np.intp, count=owner.size)
        return owner, neighbor

    def any_neighbor(self, mask: np.ndarray) -> np.ndarray:
        """True at each node with at least one neighbor set in the boolean mask.

        Equal to adjacency_matrix() @ mask, in O(edges) time and memory.
        """
        return _any_neighbor(*self._edge_arrays, mask)


@dataclass(frozen=True)
class SimOutcome:
    """Per-tick InfectedEndo / InfectedExo counts and their peaks."""

    endo_series: np.ndarray
    exo_series: np.ndarray
    endo_peak: PeakStats
    exo_peak: PeakStats


@dataclass(frozen=True)
class CombinationSummary:
    """Mean peak statistics over the repetitions of one parameter combination."""

    beta_x: float
    beta_e: float
    gamma: float
    mean_endo_peak_value: float
    mean_endo_peak_tick: float
    mean_exo_peak_value: float
    mean_exo_peak_tick: float
    reps: int


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _require_probabilities(params: ModelParams) -> None:
    """Rates above 1 are not probabilities; ModelParams rejects those below 0."""
    for name in ("beta_x", "beta_e", "gamma"):
        value = getattr(params, name)
        if value > 1.0:
            raise ParameterError(f"{name} is a per-tick probability and must lie in "
                                 f"[0, 1], got {value!r}")


def _require_sizes(n: int, m: int) -> None:
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m!r}")
    if n <= m:
        raise ParameterError(f"n must exceed m, got n={n!r}, m={m!r}")


def _require_max_ticks(max_ticks: int) -> None:
    if max_ticks < 1:
        raise ParameterError(f"max_ticks must be >= 1, got {max_ticks!r}")


def _tick_rates(params: ModelParams) -> tuple[float, float, float]:
    """(beta_x, endogenous infection probability of a node with k = 1, gamma).

    With k boolean, 1-(1-beta_e)^k is 0 at k = 0 and this probability at
    k = 1: pow(x, 1) is x exactly, so comparing a uniform with it gives the
    same outcome as with the power.
    """
    return params.beta_x, 1.0 - (1.0 - params.beta_e), params.gamma


def _choose_distinct(rng: np.random.Generator, p: np.ndarray, size: int) -> list[int]:
    """size distinct indices of p, drawn with probabilities p; p is overwritten.

    numpy's algorithm for rng.choice(len(p), size, replace=False, p=p), written
    out without its validation and np.unique: it consumes the same uniforms and
    returns the same indices in the same order.
    """
    found: list[int] = []
    while len(found) < size:
        x = rng.random((size - len(found),))
        if found:
            p[found] = 0.0
        cdf = p.cumsum()
        cdf /= cdf[-1]
        for t in cdf.searchsorted(x, side="right").tolist():
            if t not in found:
                found.append(t)
    return found


def _grow_ba_edges(n: int, m: int, rngs) -> tuple[np.ndarray, np.ndarray]:
    """One preferential-attachment graph per generator, grown side by side.

    Returns (owner, neighbor) node indices of shape (graphs, directed edges);
    row g holds the edges of the graph grown from rngs[g] alone, with the
    draws of one rng.choice(replace=False, p=degree share) per arriving node.
    For m >= 2 those draws depend on the data (a duplicate is redrawn), so
    each row calls _choose_distinct on its own generator. For m = 1 there is
    one uniform per arriving node and never a redraw, so a row's uniforms are
    drawn at once: rng.random(n - 2) is the same stream as n - 2 calls of
    rng.random(1). The row-wise cumsum and normalisation are the per-graph
    ones bit for bit, and on a sorted cdf the count of cdf <= u is
    searchsorted(u, side="right").
    """
    _require_sizes(n, m)
    graphs = len(rngs)
    arrivals = n - m - 1
    # Whole numbers held as floats: exact, and the division below needs no cast.
    # Every node has degree m when it arrives; later nodes are not read before.
    degrees = np.full((graphs, n), float(m))
    if m == 1:
        uniforms = np.empty((graphs, arrivals))
        for row, rng in zip(uniforms, rngs):
            rng.random(out=row)
        row_starts = np.arange(graphs) * n
        flat_degrees = degrees.ravel()
        chosen = np.empty((graphs, arrivals), dtype=np.intp)
    else:
        picks: list[list[int]] = [[] for _ in rngs]
    total_degree = m * (m + 1)
    for new in range(m + 1, n):
        if m == 1:
            cdf = (degrees[:, :new] / total_degree).cumsum(axis=1)
            cdf /= cdf[:, -1:]
            targets = (cdf <= uniforms[:, new - 2, None]).sum(axis=1)
            flat_degrees[row_starts + targets] += 1
            chosen[:, new - 2] = targets
        else:
            for rng, row, picked in zip(rngs, degrees, picks):
                found = _choose_distinct(rng, row[:new] / total_degree, m)
                for t in found:
                    row[t] += 1
                picked.extend(found)
        total_degree += 2 * m
    if m > 1:
        chosen = np.array(picks, dtype=np.intp).reshape(graphs, arrivals * m)
    clique = np.array([(a, b) for a in range(m + 1) for b in range(m + 1) if a != b],
                      dtype=np.intp).reshape(-1, 2)
    new = np.repeat(np.arange(m + 1, n), m)
    owner = np.concatenate([np.broadcast_to(clique[:, 0], (graphs, len(clique))),
                            np.broadcast_to(new, chosen.shape), chosen], axis=1)
    neighbor = np.concatenate([np.broadcast_to(clique[:, 1], (graphs, len(clique))),
                               chosen, np.broadcast_to(new, chosen.shape)], axis=1)
    return owner, neighbor


def generate_ba_graph(n: int, m: int, seed) -> ContactGraph:
    """Preferential-attachment graph grown from a complete graph on m+1 nodes.

    Each arriving node attaches m edges to existing nodes sampled without
    replacement with probability proportional to current degree. For n=150,
    m=1 the mean degree is 2*149/150, matching an average node degree of 2.
    """
    owner, neighbor = _grow_ba_edges(n, m, [_as_rng(seed)])
    graph = ContactGraph.from_edges(n, owner[0], neighbor[0])
    expected_edges = m * (m + 1) // 2 + (n - m - 1) * m
    assert graph.edge_count() == expected_edges
    return graph


def _tick(statuses: np.ndarray, owner: np.ndarray, neighbor: np.ndarray, u: np.ndarray,
          beta_x, p_endo, gamma) -> np.ndarray:
    """One synchronous update of every row of statuses; returns new statuses.

    owner and neighbor index the flattened statuses. u holds each row's three
    uniforms per node (exogenous, endogenous, recovery), shape (rows, 3, n);
    the rates are per row, (rows, 1) arrays or floats (see _tick_rates).
    """
    infected = (statuses == _IE) | (statuses == _IX)
    susceptible = statuses == _S
    k = _any_neighbor(owner, neighbor, infected)
    exo_hit = susceptible & (u[:, 0] < beta_x)
    endo_hit = susceptible & ~exo_hit & k & (u[:, 1] < p_endo)
    recovered = infected & (u[:, 2] < gamma)
    out = statuses.copy()
    out[exo_hit] = _IX
    out[endo_hit] = _IE
    out[recovered] = _R
    return out


def step(graph: ContactGraph, statuses: np.ndarray, params: ModelParams,
         rng: np.random.Generator) -> np.ndarray:
    """One synchronous update; returns a new status array.

    Consumes exactly three uniform draws per node per tick (exogenous,
    endogenous, recovery, in that order) so runs are reproducible.

    Known defect, kept so results stay reproducible: k is 1 when a node has
    any infected neighbor and 0 otherwise, not the number of infected
    neighbors.
    """
    if statuses.shape != (graph.n,):
        raise ParameterError(f"statuses must have shape ({graph.n},), got {statuses.shape}")
    return _tick(statuses[None], *graph._edge_arrays, rng.random((1, 3, graph.n)),
                 *_tick_rates(params))[0]


def _flat_edges(owner: np.ndarray, neighbor: np.ndarray, n: int):
    """Row-local edge arrays as indices into the flattened (rows, n) statuses."""
    offsets = (np.arange(len(owner)) * n)[:, None]
    return (owner + offsets).ravel(), (neighbor + offsets).ravel()


def _run_batch(statuses: np.ndarray, owner: np.ndarray, neighbor: np.ndarray,
               rates: np.ndarray, rngs: list, max_ticks: int):
    """Run each row of statuses until it has no infected node (checked from tick 1)
    or max_ticks, all rows in lockstep.

    Row r runs on the graph of owner[r], neighbor[r] (node indices), with
    rates[r] (see _tick_rates) and its own generator rngs[r], which gives it
    exactly three uniforms per node per tick: rng.random(out=u[r]) is the
    same stream as three random(n) calls. Returns the InfectedEndo and
    InfectedExo counts per tick and row, shape (2, ticks + 1, rows), 0 after
    a row's run has ended. A row leaves the batch after its last tick, so its
    generator is left where a run on its own would leave it.
    """
    runs, n = statuses.shape
    live = np.arange(runs)  # the run of each batch row
    history = [_infected_counts(statuses)]
    flat_owner, flat_neighbor = _flat_edges(owner, neighbor, n)
    columns = rates.T[:, :, None]  # beta_x, p_endo, gamma as (rows, 1) columns
    for _ in range(max_ticks):
        u = np.empty((live.size, 3, n))
        for row, rng in zip(u, rngs):
            rng.random(out=row)
        statuses = _tick(statuses, flat_owner, flat_neighbor, u, *columns)
        counts = _infected_counts(statuses)
        recorded = np.zeros((2, runs), dtype=np.int64)
        recorded[:, live] = counts
        history.append(recorded)
        running = counts.any(axis=0)
        if not running.all():
            if not running.any():
                break
            live, statuses, owner, neighbor, rates = (
                a[running] for a in (live, statuses, owner, neighbor, rates))
            rngs = list(itertools.compress(rngs, running))
            flat_owner, flat_neighbor = _flat_edges(owner, neighbor, n)
            columns = rates.T[:, :, None]
    return np.stack(history, axis=1)


def _infected_counts(statuses: np.ndarray) -> np.ndarray:
    """InfectedEndo and InfectedExo nodes per row, shape (2, rows)."""
    return np.stack([(statuses == _IE).sum(axis=1), (statuses == _IX).sum(axis=1)])


def _peaks(series: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-maximum value and tick of each column of a (ticks, runs) count array."""
    tick = series.argmax(axis=0)
    return series[tick, np.arange(series.shape[1])], tick


def run_simulation(graph: ContactGraph, params: ModelParams, rng: np.random.Generator,
                   max_ticks: int = DEFAULT_MAX_TICKS,
                   initial_statuses: np.ndarray | None = None) -> SimOutcome:
    """Simulate until no infected nodes remain (checked from tick 1) or max_ticks.

    The default start is all-susceptible; the exogenous channel seeds the run.
    The rates are per-tick probabilities and must lie in [0, 1]. The run
    draws exactly three uniforms per node per tick from rng.
    """
    _require_probabilities(params)
    _require_max_ticks(max_ticks)
    if initial_statuses is None:
        statuses = np.full(graph.n, NodeStatus.SUSCEPTIBLE, dtype=np.int8)
    else:
        statuses = np.asarray(initial_statuses, dtype=np.int8).copy()
        if statuses.shape != (graph.n,):
            raise ParameterError(f"initial_statuses must have shape ({graph.n},)")
    owner, neighbor = graph._edge_arrays
    endo, exo = _run_batch(statuses[None], owner[None], neighbor[None],
                           np.array([_tick_rates(params)]), [rng], max_ticks)
    (endo_value,), (endo_tick,) = _peaks(endo)
    (exo_value,), (exo_tick,) = _peaks(exo)
    return SimOutcome(
        endo_series=endo[:, 0],
        exo_series=exo[:, 0],
        endo_peak=PeakStats(float(endo_value), int(endo_tick), float(endo_tick)),
        exo_peak=PeakStats(float(exo_value), int(exo_tick), float(exo_tick)),
    )


def run_experiment(base_seed: int, reps: int = 50, n: int = 150, m: int = 1,
                   max_ticks: int = DEFAULT_MAX_TICKS,
                   beta_x_axis=DEFAULT_GRID_AXIS, beta_e_axis=DEFAULT_GRID_AXIS,
                   gamma_axis=DEFAULT_GRID_AXIS) -> list[CombinationSummary]:
    """Mean peak statistics over reps repetitions for every grid combination.

    A fresh graph is generated per repetition. Each repetition owns the
    derived stream SeedSequence([base_seed, combination_index, repetition]),
    which grows its graph and then draws its ticks, so aggregates are
    reproducible and independent of execution order. All repetitions of the
    grid run as one batch (several once they exceed _BATCH_NODES nodes).
    """
    if reps < 1:
        raise ParameterError(f"reps must be >= 1, got {reps!r}")
    grid = [ModelParams(beta_x=bx, beta_e=be, gamma=g)
            for bx, be, g in itertools.product(beta_x_axis, beta_e_axis, gamma_axis)]
    for params in grid:
        _require_probabilities(params)
    _require_sizes(n, m)
    _require_max_ticks(max_ticks)
    jobs = [(ci, rep) for ci in range(len(grid)) for rep in range(reps)]
    # endo value, endo tick, exo value, exo tick per job
    peaks = np.empty((4, len(jobs)))
    size = max(1, _BATCH_NODES // n)
    for start in range(0, len(jobs), size):
        batch = jobs[start:start + size]
        rngs = [np.random.default_rng(np.random.SeedSequence([base_seed, ci, rep]))
                for ci, rep in batch]
        owner, neighbor = _grow_ba_edges(n, m, rngs)
        rates = np.array([_tick_rates(grid[ci]) for ci, _ in batch])
        statuses = np.full((len(batch), n), _S, dtype=np.int8)
        endo, exo = _run_batch(statuses, owner, neighbor, rates, rngs, max_ticks)
        done = slice(start, start + len(batch))
        peaks[0, done], peaks[1, done] = _peaks(endo)
        peaks[2, done], peaks[3, done] = _peaks(exo)
    # The peaks are whole numbers, so these sums are exact in any order.
    means = peaks.reshape(4, len(grid), reps).mean(axis=2).T.tolist()
    return [CombinationSummary(params.beta_x, params.beta_e, params.gamma, *row, reps=reps)
            for params, row in zip(grid, means)]
