"""Discrete-event oracle for TTL cache networks.

Simulates the literal cache semantics on a topology: leaf requests are
drawn from their arrival MAPs; a request at a node is a hit if the object
is present (R nodes redraw their TTL, min nodes redraw only the R
component) and otherwise a miss that is forwarded towards the origin, with
the object installed with fresh TTLs at every node that missed, all at the
same instant. Evictions happen when a TTL expires; min nodes evict at the
earlier of their two timers. Estimates carry batch-means standard errors
so autocorrelation does not silently shrink the error bars.

There is no event queue. The network is feedforward and a miss installs
the object below whatever its parents hold, so a node's cache depends on
its own request stream alone. The simulator therefore runs node by node in
topological order: a node receives the sorted indices of the leaf events
that reach it, decides hit or miss for all of them at once, and hands its
misses to its parents. Leaf events go through in blocks of about `_BLOCK`,
each node carrying its cache cycle from one block to the next. A block
holds a few dozen arrays of at most that length (16 KB each at 8 bytes
an entry), so memory does not grow with `event_cap`. A node's pass runs
only the timers its policy holds, so an R node finds its misses by one
comparison, with no walk. Leaf samplers reuse their MAP's `stationary`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .network import AnalysisResult, Topology
from .processes import MapSampler, sample_ph

__all__ = [
    "SimConfig",
    "NodeEstimate",
    "SimEstimate",
    "DiscrepancyRow",
    "DiscrepancyReport",
    "simulate",
    "compare",
]

_N_BATCHES = 100
_BLOCK = 3072  # leaf events per block: bounds memory; a run's law does not depend on it


@dataclass(frozen=True)
class SimConfig:
    topology: Topology
    event_cap: int
    warmup: int | None = None  # None: 10% of event_cap
    seed: int = 0
    object_id: str | None = None

    def __post_init__(self):
        # event counts: an integral float, as the CLI parses `--events 2e5`, becomes an int
        for name in ("event_cap", "warmup"):
            value = getattr(self, name)
            if value is None:
                continue
            if not float(value).is_integer():
                raise ValidationError(f"{name} must be a whole number of events, not {value!r}")
            object.__setattr__(self, name, int(value))

    @property
    def effective_warmup(self) -> int:
        return self.event_cap // 10 if self.warmup is None else self.warmup


@dataclass(frozen=True)
class NodeEstimate:
    requests: int
    hits: int
    misses: int
    hit_ratio: float
    hit_se: float
    miss_ratio: float
    miss_se: float
    occupancy: float
    occupancy_se: float
    miss_rate: float
    miss_rate_se: float
    inter_miss_mean: float
    inter_miss_mean_se: float
    inter_miss_m2: float
    inter_miss_m2_se: float

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass(frozen=True)
class SimEstimate:
    object_id: str
    seed: int
    events: int
    counted_events: int
    duration: float
    nodes: dict  # node id -> NodeEstimate

    def to_dict(self) -> dict:
        return {
            "object": self.object_id,
            "seed": self.seed,
            "events": self.events,
            "counted_events": self.counted_events,
            "duration": self.duration,
            "nodes": {nid: est.to_dict() for nid, est in self.nodes.items()},
        }


def _draw_ttls(ttl, rng, n: int) -> np.ndarray:
    """`n` i.i.d. draws of one node TTL: from its renewal law, or its
    phase-type form for a "ph" spec."""
    if ttl.law is None:
        return sample_ph(ttl.ph, rng, n)
    return ttl.law.sample(rng, n)


class _Node:
    """One cache's state between blocks: its last cache cycle and its batch tallies.

    Every policy is min(Sigma, R), with the Sigma timer absent (None) at R
    nodes and the R timer at Sigma nodes; `serve` runs only the timers held.
    A cycle starts at a miss, which draws both timers; each later request
    redraws the R timer; the copy is evicted at the earlier expiry.
    """

    def __init__(self, node, n_batches: int):
        self.sigma_ttl, self.r_ttl = {
            "R": (None, node.ttl),
            "Sigma": (node.ttl, None),
            "MinSigmaR": (node.ttl, node.ttl_r),
        }[node.policy]
        # the current (or last evicted) cycle: its start, its Sigma expiry, the
        # R expiry set by its last request; the empty cache is evicted at 0
        self.start = self.sigma_end = self.r_end = 0.0
        self.cum = 0.0  # in-cache time before `start`
        self.last_miss = math.nan
        # per batch: requests, misses, inter-miss count, sum and sum of squares
        self.tally = np.zeros((5, n_batches))
        self.in_cache = np.zeros(n_batches + 1)  # in-cache time up to each batch edge

    def serve(self, t, batch, edge_t, at_edge, rng) -> np.ndarray:
        """Serve one block's requests at sorted times `t`; returns the positions that miss.

        `batch` holds each request's batch (-1 in the warm-up); `edge_t` are
        the batch-edge times that fall in this block, at `at_edge`.
        """
        n = t.size
        sigma, r = self.sigma_ttl is not None, self.r_ttl is not None
        if sigma:
            sigma_end = t + _draw_ttls(self.sigma_ttl, rng, n)
        if r:
            r_end = np.concatenate(([self.r_end], t + _draw_ttls(self.r_ttl, rng, n)))
        if not sigma:
            # every request redraws the R timer, so a request misses exactly
            # when it comes at or after the previous one's R expiry
            miss = np.flatnonzero(t >= r_end[:-1])
        else:
            # after a miss at i the next miss is the first request at or past
            # i's Sigma expiry or, under min, the first R break past i
            pos = np.arange(n)
            nxt, i = np.searchsorted(t, sigma_end), int(np.searchsorted(t, self.sigma_end))
            if r:
                breaks = np.where(t >= r_end[:-1], pos, n)
                next_break = np.concatenate((np.minimum.accumulate(breaks[::-1])[::-1], [n]))
                nxt, i = np.minimum(next_break[1:], nxt), min(int(next_break[0]), i)
            nxt = np.maximum(nxt, pos + 1).tolist()
            misses = []
            while i < n:
                misses.append(i)
                i = nxt[i]
            miss = np.array(misses, dtype=np.intp)

        # in-cache intervals: the carried cycle, then one per miss, each ending
        # at its Sigma expiry or at the R expiry of its last request. The last
        # end is provisional, but a later hit can only move it past this block.
        starts = np.concatenate(([self.start], t[miss]))
        if sigma:
            ends = np.concatenate(([self.sigma_end], sigma_end[miss]))
            self.sigma_end = ends[-1]
        if r:
            r_last = r_end[np.concatenate((miss, [n]))]
            ends = np.minimum(ends, r_last) if sigma else r_last
            self.r_end = r_last[-1]
        before = self.cum + np.concatenate(([0.0], np.cumsum(ends - starts)))
        j = np.searchsorted(starts, edge_t, side="right") - 1
        self.in_cache[at_edge] = before[j] + np.minimum(edge_t, ends[j]) - starts[j]
        self.start, self.cum = starts[-1], before[-2]

        n_batches = self.tally.shape[1]
        self.tally[0] += np.bincount(batch[batch >= 0], minlength=n_batches)
        miss_b = batch[miss]
        gaps = np.diff(np.concatenate(([self.last_miss], starts[1:])))
        self.last_miss = starts[-1] if miss.size else self.last_miss
        self.tally[1] += np.bincount(miss_b[miss_b >= 0], minlength=n_batches)
        ok = (miss_b >= 0) & ~np.isnan(gaps)
        miss_b, gaps = miss_b[ok], gaps[ok]
        self.tally[2] += np.bincount(miss_b, minlength=n_batches)
        self.tally[3] += np.bincount(miss_b, gaps, minlength=n_batches)
        self.tally[4] += np.bincount(miss_b, gaps * gaps, minlength=n_batches)
        return miss


def _leaf_blocks(samplers, count: int):
    """Merge the leaves' event streams in time order; yields (times, leaf slots) blocks.

    Each round tops every leaf's buffer up to its share of a block, by its
    event rate so far, and releases every buffered event up to the earliest
    buffer end, so no later event can precede one already released.
    """
    pending = [np.empty(0)] * len(samplers)
    drawn = np.zeros(len(samplers))
    while count:
        rates = drawn / [s.time for s in samplers] if drawn.any() else np.ones(len(samplers))
        target = (1.1 * min(_BLOCK, count) / rates.sum() * rates).astype(int) + 16
        for i, s in enumerate(samplers):
            if pending[i].size < target[i]:
                drawn[i] += target[i] - pending[i].size
                pending[i] = np.concatenate((pending[i], s.sample(target[i] - pending[i].size)))
        horizon = min(p[-1] for p in pending)
        cuts = [int(np.searchsorted(p, horizon, side="right")) for p in pending]
        times = np.concatenate([p[:c] for p, c in zip(pending, cuts)])
        slots = np.repeat(np.arange(len(samplers)), cuts)
        order = np.argsort(times, kind="stable")[:count]
        pending = [p[c:] for p, c in zip(pending, cuts)]
        count -= order.size
        yield times[order], slots[order]


def _batch_se(values: np.ndarray) -> float:
    """Standard error of the finite batch means: numpy's std(ddof=1) step by step."""
    values = values[np.isfinite(values)]
    n = values.size
    if n < 2:
        return math.nan
    dev = values - values.sum() / n
    return math.sqrt(float((dev * dev).sum()) / (n - 1)) / math.sqrt(n)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else math.nan


def simulate(cfg: SimConfig) -> SimEstimate:
    """Run one seeded simulation and return per-node empirical metrics.

    `event_cap` counts leaf request events; the first `warmup` of them are
    excluded from every estimate, and the rest are cut by leaf-event index
    into at most 100 batches for the standard errors. There is no event
    queue: the nodes are simulated one at a time in topological order, over
    blocks of about `_BLOCK` leaf events, so memory does not grow with
    `event_cap`. Runs are reproducible bit-for-bit for a fixed seed.
    """
    warmup = cfg.effective_warmup
    if warmup < 0:
        raise ValidationError("warmup must be nonnegative")
    if cfg.event_cap <= warmup:
        raise ValidationError("event_cap must exceed warmup")
    topo = cfg.topology
    obj = topo.objects[0] if cfg.object_id is None else topo.object_by_id(cfg.object_id)
    rng = np.random.default_rng(cfg.seed)
    n_post = cfg.event_cap - warmup
    n_batches = min(_N_BATCHES, n_post)
    # leaf-event index at which each batch starts; the last event closes the window
    edges = warmup + (np.arange(n_batches) * n_post + n_batches - 1) // n_batches
    edges = np.append(edges, cfg.event_cap - 1)
    edge_times = np.empty(n_batches + 1)

    order = topo.topological_order()
    nodes = {nid: _Node(topo.nodes[nid], n_batches) for nid in order}
    parents = {nid: topo.parents_of(nid) for nid in order}
    leaves = topo.leaves
    samplers = [MapSampler(topo.arrival_for(obj, leaf), rng) for leaf in leaves]

    offset = 0
    for times, slots in _leaf_blocks(samplers, cfg.event_cap):
        at_edge = (edges >= offset) & (edges < offset + times.size)
        edge_t = times[edges[at_edge] - offset]
        edge_times[at_edge] = edge_t
        q = np.arange(offset, offset + times.size) - warmup
        batch = np.where(q >= 0, q * n_batches // n_post, -1)
        inbox = {nid: [] for nid in order}
        for slot, leaf in enumerate(leaves):
            inbox[leaf].append(np.flatnonzero(slots == slot))
        # each leaf event reaches a node along one path, so a join is a sort
        for nid in order:
            parts = inbox.pop(nid)
            idx = parts[0] if len(parts) == 1 else np.sort(np.concatenate(parts))
            fwd = idx[nodes[nid].serve(times[idx], batch[idx], edge_t, at_edge, rng)]
            ps = parents[nid]
            if len(ps) == 1:
                inbox[ps[0]].append(fwd)
            elif ps:
                cum = topo.nodes[nid].split.entries.cumsum()
                k = np.searchsorted(cum, rng.random(fwd.size) * cum[-1], side="right")
                for j, pid in enumerate(ps):
                    inbox[pid].append(fwd[k == j])
        offset += times.size

    durs = np.diff(edge_times)
    duration = float(edge_times[-1] - edge_times[0])
    estimates = {}
    for nid in topo.node_order:
        req, mis, imc, ims, imq = nodes[nid].tally
        hit = req - mis
        occ = np.diff(nodes[nid].in_cache)
        total_req = int(req.sum())
        total_miss = int(mis.sum())
        total_hit = total_req - total_miss
        with np.errstate(invalid="ignore", divide="ignore"):
            hit_b = np.where(req > 0, hit / req, np.nan)
            occ_b = np.where(durs > 0, occ / durs, np.nan)
            rate_b = np.where(durs > 0, mis / durs, np.nan)
            im_mean_b = np.where(imc > 0, ims / imc, np.nan)
            im_m2_b = np.where(imc > 0, imq / imc, np.nan)
        hit_se = _batch_se(hit_b)
        estimates[nid] = NodeEstimate(
            requests=total_req,
            hits=total_hit,
            misses=total_miss,
            hit_ratio=_ratio(total_hit, total_req),
            hit_se=hit_se,
            miss_ratio=_ratio(total_miss, total_req),
            miss_se=hit_se,
            occupancy=_ratio(float(occ.sum()), duration),
            occupancy_se=_batch_se(occ_b),
            miss_rate=_ratio(total_miss, duration),
            miss_rate_se=_batch_se(rate_b),
            inter_miss_mean=_ratio(float(ims.sum()), float(imc.sum())),
            inter_miss_mean_se=_batch_se(im_mean_b),
            inter_miss_m2=_ratio(float(imq.sum()), float(imc.sum())),
            inter_miss_m2_se=_batch_se(im_m2_b),
        )
    return SimEstimate(
        object_id=obj.id,
        seed=cfg.seed,
        events=cfg.event_cap,
        counted_events=n_post,
        duration=duration,
        nodes=estimates,
    )


@dataclass(frozen=True)
class DiscrepancyRow:
    node: str
    metric: str
    analytic: float
    empirical: float
    stderr: float
    z_score: float
    flagged: bool

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass(frozen=True)
class DiscrepancyReport:
    k_sigma: float
    rows: tuple

    @property
    def flagged(self) -> list:
        return [row for row in self.rows if row.flagged]

    @property
    def ok(self) -> bool:
        return not self.flagged

    def to_dict(self) -> dict:
        return {
            "k_sigma": self.k_sigma,
            "flagged_count": len(self.flagged),
            "rows": [row.to_dict() for row in self.rows],
        }


def compare(
    analytic: AnalysisResult, empirical: SimEstimate, k_sigma: float = 4.0
) -> DiscrepancyReport:
    """Per-node, per-metric |analytic - empirical| / stderr discrepancy table.

    Rows whose z-score exceeds `k_sigma` (or whose standard error is
    undefined while the values differ) are flagged.
    """
    if set(analytic.metrics) != set(empirical.nodes):
        raise ValidationError(
            f"mismatched node sets: {sorted(analytic.metrics)} vs {sorted(empirical.nodes)}"
        )
    rows = []
    for nid, exact in analytic.metrics.items():
        est = empirical.nodes[nid]
        pairs = [
            ("hit", exact.hit_probability, est.hit_ratio, est.hit_se),
            ("miss", exact.miss_probability, est.miss_ratio, est.miss_se),
            ("occupancy", exact.occupancy, est.occupancy, est.occupancy_se),
            ("miss_rate", exact.miss_rate, est.miss_rate, est.miss_rate_se),
        ]
        for metric, a, e, se in pairs:
            gap = abs(a - e)
            if se and math.isfinite(se) and se > 0:
                z = gap / se
            else:
                z = 0.0 if gap == 0.0 else math.inf
            rows.append(
                DiscrepancyRow(
                    node=nid,
                    metric=metric,
                    analytic=a,
                    empirical=e,
                    stderr=se,
                    z_score=z,
                    flagged=bool(z > k_sigma),
                )
            )
    return DiscrepancyReport(k_sigma=k_sigma, rows=tuple(rows))
