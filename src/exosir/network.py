"""Stochastic agent-based Exo-SIR on a Barabasi-Albert contact network.

Nodes are Susceptible, InfectedEndo, InfectedExo, or Recovered. Susceptible
nodes convert to InfectedExo with probability beta_x per tick (the exogenous
draw comes first); those the exogenous draw misses convert to InfectedEndo
with probability 1-(1-beta_e)^k given k infected neighbors. Infected nodes
recover with probability gamma, but never in the tick they were infected.
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


class NodeStatus(IntEnum):
    SUSCEPTIBLE = 0
    INFECTED_ENDO = 1
    INFECTED_EXO = 2
    RECOVERED = 3


# Plain-int copies for the per-tick loops, where looking up an enum member
# costs more than the array comparison it feeds.
_S, _IE, _IX, _R = (int(status) for status in NodeStatus)


@dataclass(frozen=True)
class ContactGraph:
    """Undirected graph as per-node sorted neighbor lists."""

    n: int
    neighbors: tuple[tuple[int, ...], ...]

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
        owner, neighbor = self._edge_arrays
        out = np.zeros(self.n, dtype=bool)
        out[owner[mask[neighbor]]] = True
        return out


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


def generate_ba_graph(n: int, m: int, seed) -> ContactGraph:
    """Preferential-attachment graph grown from a complete graph on m+1 nodes.

    Each arriving node attaches m edges to existing nodes sampled without
    replacement with probability proportional to current degree. For n=150,
    m=1 the mean degree is 2*149/150, matching an average node degree of 2.
    """
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m!r}")
    if n <= m:
        raise ParameterError(f"n must exceed m, got n={n!r}, m={m!r}")
    rng = _as_rng(seed)
    neighbors = [set() for _ in range(n)]
    # Whole numbers held as floats: exact, and the division below needs no cast.
    degrees = np.zeros(n)
    for a in range(m + 1):
        for b in range(a + 1, m + 1):
            neighbors[a].add(b)
            neighbors[b].add(a)
            degrees[a] += 1
            degrees[b] += 1
    total_degree = m * (m + 1)
    for new in range(m + 1, n):
        for t in _choose_distinct(rng, degrees[:new] / total_degree, m):
            neighbors[new].add(t)
            neighbors[t].add(new)
            degrees[new] += 1
            degrees[t] += 1
        total_degree += 2 * m
    graph = ContactGraph(n=n, neighbors=tuple(tuple(sorted(nb)) for nb in neighbors))
    expected_edges = m * (m + 1) // 2 + (n - m - 1) * m
    assert graph.edge_count() == expected_edges
    return graph


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
    infected = (statuses == _IE) | (statuses == _IX)
    susceptible = statuses == _S
    k = graph.any_neighbor(infected)
    u_exo = rng.random(graph.n)
    u_endo = rng.random(graph.n)
    u_rec = rng.random(graph.n)
    exo_hit = susceptible & (u_exo < params.beta_x)
    p_endo = 1.0 - (1.0 - params.beta_e) ** k
    endo_hit = susceptible & ~exo_hit & (u_endo < p_endo)
    recovered = infected & (u_rec < params.gamma)
    out = statuses.copy()
    out[exo_hit] = _IX
    out[endo_hit] = _IE
    out[recovered] = _R
    return out


def run_simulation(graph: ContactGraph, params: ModelParams, rng: np.random.Generator,
                   max_ticks: int = DEFAULT_MAX_TICKS,
                   initial_statuses: np.ndarray | None = None) -> SimOutcome:
    """Simulate until no infected nodes remain (checked from tick 1) or max_ticks.

    The default start is all-susceptible; the exogenous channel seeds the run.
    The rates are per-tick probabilities and must lie in [0, 1].
    """
    _require_probabilities(params)
    if max_ticks < 1:
        raise ParameterError(f"max_ticks must be >= 1, got {max_ticks!r}")
    if initial_statuses is None:
        statuses = np.full(graph.n, NodeStatus.SUSCEPTIBLE, dtype=np.int8)
    else:
        statuses = np.asarray(initial_statuses, dtype=np.int8).copy()
        if statuses.shape != (graph.n,):
            raise ParameterError(f"initial_statuses must have shape ({graph.n},)")
    endo = [np.count_nonzero(statuses == _IE)]
    exo = [np.count_nonzero(statuses == _IX)]
    for _ in range(max_ticks):
        statuses = step(graph, statuses, params, rng)
        n_endo = np.count_nonzero(statuses == _IE)
        n_exo = np.count_nonzero(statuses == _IX)
        endo.append(n_endo)
        exo.append(n_exo)
        if n_endo + n_exo == 0:
            break
    endo_arr = np.array(endo, dtype=np.int64)
    exo_arr = np.array(exo, dtype=np.int64)
    endo_tick = int(np.argmax(endo_arr))
    exo_tick = int(np.argmax(exo_arr))
    return SimOutcome(
        endo_series=endo_arr,
        exo_series=exo_arr,
        endo_peak=PeakStats(float(endo_arr[endo_tick]), endo_tick, float(endo_tick)),
        exo_peak=PeakStats(float(exo_arr[exo_tick]), exo_tick, float(exo_tick)),
    )


def run_experiment(base_seed: int, reps: int = 50, n: int = 150, m: int = 1,
                   max_ticks: int = DEFAULT_MAX_TICKS,
                   beta_x_axis=DEFAULT_GRID_AXIS, beta_e_axis=DEFAULT_GRID_AXIS,
                   gamma_axis=DEFAULT_GRID_AXIS) -> list[CombinationSummary]:
    """Mean peak statistics over reps repetitions for every grid combination.

    A fresh graph is generated per repetition. Each repetition owns the
    derived stream SeedSequence([base_seed, combination_index, repetition]),
    so aggregates are reproducible and independent of execution order.
    """
    if reps < 1:
        raise ParameterError(f"reps must be >= 1, got {reps!r}")
    grid = [ModelParams(beta_x=bx, beta_e=be, gamma=g)
            for bx, be, g in itertools.product(beta_x_axis, beta_e_axis, gamma_axis)]
    for params in grid:
        _require_probabilities(params)
    summaries = []
    for ci, params in enumerate(grid):
        ev = np.empty(reps)
        et = np.empty(reps)
        xv = np.empty(reps)
        xt = np.empty(reps)
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence([base_seed, ci, rep]))
            graph = generate_ba_graph(n, m, rng)
            outcome = run_simulation(graph, params, rng, max_ticks=max_ticks)
            ev[rep] = outcome.endo_peak.peak_value
            et[rep] = outcome.endo_peak.peak_tick
            xv[rep] = outcome.exo_peak.peak_value
            xt[rep] = outcome.exo_peak.peak_tick
        summaries.append(CombinationSummary(
            beta_x=params.beta_x, beta_e=params.beta_e, gamma=params.gamma,
            mean_endo_peak_value=float(ev.mean()), mean_endo_peak_tick=float(et.mean()),
            mean_exo_peak_value=float(xv.mean()), mean_exo_peak_tick=float(xt.mean()),
            reps=reps,
        ))
    return summaries
