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

import numpy as np

from .errors import ParameterError
from .model import ModelParams, PeakStats, check_array_size

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


@dataclass(frozen=True, eq=False)
class ContactGraph:
    """Undirected graph on n nodes as directed edge arrays: edge j runs from
    owner[j] to neighbor[j], and every edge appears once in each direction."""

    n: int
    owner: np.ndarray
    neighbor: np.ndarray

    def adjacency_matrix(self) -> np.ndarray:
        """Dense boolean n x n adjacency; a reference only, O(n^2) memory."""
        adj = np.zeros((self.n, self.n), dtype=bool)
        adj[self.owner, self.neighbor] = True
        return adj


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
    check_array_size(n, f"n={n}")


def _require_statuses(statuses, n: int, name: str) -> np.ndarray:
    """statuses as a new int8 array of shape (n,), each value a NodeStatus."""
    values = np.asarray(statuses)
    if values.shape != (n,):
        raise ParameterError(f"{name} must have shape ({n},), got {values.shape}")
    if not np.isin(values, list(NodeStatus)).all():
        raise ParameterError(f"{name} must hold only the NodeStatus values 0, 1, 2 and 3")
    return values.astype(np.int8)


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


def _choose_distinct(rng: np.random.Generator | _Draws, p: np.ndarray, size: int,
                     x: np.ndarray) -> list[int]:
    """size distinct indices of p, drawn with probabilities p; p is overwritten.

    numpy's algorithm for rng.choice(len(p), size, replace=False, p=p), written
    out without its validation and np.unique: it consumes the same uniforms and
    returns the same indices in the same order. x holds the first round's size
    uniforms, already drawn from rng; later rounds draw from rng.
    """
    found: list[int] = []
    while True:
        if found:
            p[found] = 0.0
        cdf = p.cumsum()
        cdf /= cdf[-1]
        for t in cdf.searchsorted(x, side="right").tolist():
            if t not in found:
                found.append(t)
        if len(found) == size:
            return found
        x = rng.random((size - len(found),))


# Certified pick for m >= 2. The first round of _choose_distinct at arriving node
# `new` has degrees d_i (whole numbers) of nodes i < new summing to T, and picks
# t = searchsorted(cdf, u, "right") on cdf_k = fl(c_k/c_(new-1)), where c is the
# sequential cumsum of p_i = fl(d_i/T). With e = 2^-53, D_k = d_0 + ... + d_k (exact
# in float64 below 2^53), F_k = D_k/T and g = (new+1)e/(1 - (new+1)e):
#   p_i = (d_i/T)(1 + a_i) with |a_i| <= e, and recursive summation gives
#   c_k = sum_(i<=k) p_i(1 + b_i) with |b_i| <= new*e/(1 - new*e), so |c_k - F_k| <= g*F_k;
#   c_(new-1) = 1 + h with |h| <= g, and the rounded quotient gives
#   |cdf_k - F_k| <= ((1 + g)(1 + e)/(1 - g) - 1)*F_k <= (2*new + 4)*e for new < 2^40.
# The comparisons cdf_k <= u are exact, and the float cdf is nondecreasing (each sum
# adds a nonnegative term, the quotient divides by one positive number), so if
# F_(t-1) + (2*new + 4)*e < u < F_t - (2*new + 4)*e, with F_(-1) = 0, every cdf_k with
# k < t is <= u, every other is > u, and the pick is t. The fast path takes t from
# y = fl(u*T) against the exact D, and accepts it if y - D_(t-1) and D_t - y both
# exceed fl(delta*T) with delta = (2*new + 8)*_PICK_ULP, _PICK_ULP = 2^-51: the check
# rounds u*T, the difference and delta*T once each, so it proves both distances
# exceed delta*(1 - 3e) - e, still above (2*new + 4)*e. The accepted picks of a round
# must also be distinct; otherwise the round is redone on the exact cdf.
_PICK_ULP = 2.0**-51

# Uniforms drawn ahead per graph in one call (see _Draws).
_DRAW_BLOCK = 4096


class _DegreeStore:
    """One graph's whole-number node degrees as floats: their exact prefix sums in a
    Fenwick tree (Fenwick 1994), and the degrees in `numpy_degrees`, with `degrees`
    a memoryview of that array for fast scalar reads and writes from Python.

    tree[i] = d_(i-lowbit(i)) + ... + d_(i-1) for i = 1..size, size a power of two;
    nodes past the degrees given count as degree 0.
    """

    def __init__(self, degrees: np.ndarray):
        n = degrees.size
        size = 1 << max(n - 1, 0).bit_length()
        cum = np.zeros(size + 1)
        cum[1:n + 1] = degrees.cumsum()
        cum[n + 1:] = cum[n]
        i = np.arange(size + 1)
        self.tree = (cum - cum[i - (i & -i)]).tolist()
        # Descent strides, size/2 down to 1: a descent ends at an index below size.
        self.strides = [size >> k for k in range(1, size.bit_length())]
        self.numpy_degrees = degrees.astype(float)
        self.degrees = memoryview(self.numpy_degrees)

    def increment(self, nodes: list[int]) -> None:
        """Add 1 to the degree of each node listed."""
        tree, degrees, size = self.tree, self.degrees, len(self.tree) - 1
        for t in nodes:
            degrees[t] += 1.0
            i = t + 1
            while i <= size:
                tree[i] += 1.0
                i += i & -i


def _certified_round(store: _DegreeStore, new: int, x, total_degree: int):
    """The first-round picks of _choose_distinct for uniforms x at arriving node new,
    or None where the derivation above does not prove them.

    The degrees of nodes below new sum to total_degree. Per uniform, one descent of
    the tree finds t, the count of D_k <= y = fl(u*T), and leaves y - D_(t-1), which
    is exact: D_(t-1) is a whole number no larger than y. D_t - y is then
    d_t - (y - D_(t-1)), rounded once as the direct difference would be. y < T
    for every u < 1, so t < new; t is still checked before d_t is read, and a
    descent that ran off the end of the tree leaves y - D_(t-1) >= d_t, which fails.
    """
    slack = (2 * new + 8) * _PICK_ULP * total_degree
    tree, strides, degrees = store.tree, store.strides, store.degrees
    found = []
    for u in x:
        y = u * total_degree
        t = 0
        for stride in strides:
            below = tree[t + stride]
            if below <= y:
                t += stride
                y -= below
        if t >= new or not (y > slack and degrees[t] - y > slack) or t in found:
            return None
        found.append(t)
    return found


class _Draws:
    """The uniforms of one generator in stream order, drawn ahead in blocks.

    rng.random(a) then rng.random(b) is the same stream as rng.random(a + b), so a
    caller that never asks for more ahead than it will take leaves rng where one
    draw per request would. random(shape) serves _choose_distinct's redraws.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.block: list[float] = []
        self.at = 0

    def take(self, k: int, ahead: int = 0) -> list[float]:
        """The next k uniforms. When they are not all drawn yet, the block is refilled
        to max(k, min(_DRAW_BLOCK, ahead)) uniforms, so ahead must not exceed the
        number still to be taken, these k included."""
        at, end = self.at, self.at + k
        if end > len(self.block):
            rest = self.block[at:]
            wanted = max(k, min(_DRAW_BLOCK, ahead)) - len(rest)
            self.block = rest + self.rng.random(wanted).tolist()
            at, end = 0, k
        self.at = end
        return self.block[at:end]

    def random(self, shape: tuple[int]) -> np.ndarray:
        return np.array(self.take(*shape))


def _grow_picks(n: int, m: int, rng: np.random.Generator) -> list[int]:
    """The m targets of each arriving node m+1..n-1 of one graph, in draw order.

    A round whose picks are certified costs O(m log n); the rest, and rounds with
    a repeated pick, go through _choose_distinct on the same uniforms.
    """
    # Every node has degree m when it arrives; later nodes are not read before.
    store = _DegreeStore(np.full(n, float(m)))
    draws = _Draws(rng)
    picks: list[int] = []
    total_degree = m * (m + 1)
    for new in range(m + 1, n):
        x = draws.take(m, m * (n - new))
        found = _certified_round(store, new, x, total_degree)
        if found is None:
            p = store.numpy_degrees[:new] / total_degree
            found = _choose_distinct(draws, p, m, np.array(x))
        store.increment(found)
        picks.extend(found)
        total_degree += 2 * m
    return picks


def _grow_ba_edges(n: int, m: int, rngs) -> tuple[np.ndarray, np.ndarray]:
    """One preferential-attachment graph per generator.

    Returns (owner, neighbor) node indices of shape (graphs, directed edges);
    row g holds the edges of the graph grown from rngs[g] alone, with the
    draws of one rng.choice(replace=False, p=degree share) per arriving node.
    For m = 1 there is one uniform per arriving node and never a redraw, so a
    row's uniforms are drawn at once: rng.random(n - 2) is the same stream as
    n - 2 calls of rng.random(1). The graphs grow side by side; the row-wise
    cumsum and normalisation are the per-graph ones bit for bit, and on a
    sorted cdf the count of cdf <= u is searchsorted(u, side="right"). For
    m >= 2 the draws depend on the data (a duplicate is redrawn), so each
    graph grows on its own (_grow_picks).
    """
    _require_sizes(n, m)
    graphs = len(rngs)
    arrivals = n - m - 1
    if m == 1:
        # Whole numbers held as floats: exact, and the division needs no cast.
        # Every node has degree 1 when it arrives; later nodes are not read before.
        degrees = np.ones((graphs, n))
        total_degree = 2
        uniforms = np.empty((graphs, arrivals))
        for row, rng in zip(uniforms, rngs):
            rng.random(out=row)
        row_starts = np.arange(graphs) * n
        flat_degrees = degrees.ravel()
        chosen = np.empty((graphs, arrivals), dtype=np.intp)
        for new in range(2, n):
            cdf = (degrees[:, :new] / total_degree).cumsum(axis=1)
            cdf /= cdf[:, -1:]
            targets = (cdf <= uniforms[:, new - 2, None]).sum(axis=1)
            flat_degrees[row_starts + targets] += 1
            chosen[:, new - 2] = targets
            total_degree += 2
    else:
        chosen = np.array([_grow_picks(n, m, rng) for rng in rngs],
                          dtype=np.intp).reshape(graphs, arrivals * m)
    # The (m+1)-clique's m(m+1) directed edges, a ascending, then b != a ascending.
    clique_a = np.repeat(np.arange(m + 1), m)
    clique_b = np.tile(np.arange(m), m + 1)
    clique_b += clique_b >= clique_a
    new = np.repeat(np.arange(m + 1, n), m)
    owner = np.concatenate([np.broadcast_to(clique_a, (graphs, clique_a.size)),
                            np.broadcast_to(new, chosen.shape), chosen], axis=1)
    neighbor = np.concatenate([np.broadcast_to(clique_b, (graphs, clique_b.size)),
                               chosen, np.broadcast_to(new, chosen.shape)], axis=1)
    return owner, neighbor


def generate_ba_graph(n: int, m: int, seed) -> ContactGraph:
    """Preferential-attachment graph grown from a complete graph on m+1 nodes.

    Each arriving node attaches m edges to existing nodes sampled without
    replacement with probability proportional to current degree. For n=150,
    m=1 the mean degree is 2*149/150, matching an average node degree of 2.
    """
    (owner,), (neighbor,) = _grow_ba_edges(n, m, [np.random.default_rng(seed)])
    owner.flags.writeable = neighbor.flags.writeable = False
    return ContactGraph(n, owner, neighbor)


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
    """One synchronous update; returns a new int8 status array.

    The rates are per-tick probabilities and must lie in [0, 1]. Consumes
    exactly three uniform draws per node per tick (exogenous, endogenous,
    recovery, in that order) so runs are reproducible.

    Known defect, kept so results stay reproducible: k is 1 when a node has
    any infected neighbor and 0 otherwise, not the number of infected
    neighbors.
    """
    _require_probabilities(params)
    statuses = _require_statuses(statuses, graph.n, "statuses")
    return _tick(statuses[None], graph.owner, graph.neighbor, rng.random((1, 3, graph.n)),
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
        statuses = _require_statuses(initial_statuses, graph.n, "initial_statuses")
    endo, exo = _run_batch(statuses[None], graph.owner[None], graph.neighbor[None],
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
    if base_seed < 0:
        raise ParameterError(f"seed must be >= 0, got {base_seed!r}")
    grid = [ModelParams(beta_x=bx, beta_e=be, gamma=g)
            for bx, be, g in itertools.product(beta_x_axis, beta_e_axis, gamma_axis)]
    for params in grid:
        _require_probabilities(params)
    _require_sizes(n, m)
    _require_max_ticks(max_ticks)
    # Job j is repetition j % reps of combination j // reps; its endo value, endo
    # tick, exo value and exo tick go to column j of peaks.
    jobs = len(grid) * reps
    check_array_size(4 * jobs, f"reps={reps}")
    peaks = np.empty((4, jobs))
    size = max(1, _BATCH_NODES // n)
    for start in range(0, jobs, size):
        batch = [divmod(job, reps) for job in range(start, min(start + size, jobs))]
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
