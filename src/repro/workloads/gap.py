"""GAP benchmark-suite-like traces: real graph kernels over synthetic graphs.

The paper evaluates 20 single-threaded GAP traces (5 kernels × real and
synthetic graphs).  Here the kernels (BFS, PageRank, SSSP, BC, CC)
actually *execute* over synthetic graphs in CSR form, and every load the
kernel performs is recorded:

* the offsets/frontier walks are one **regular** IP (the stream IP-stride
  and Berti both cover — the paper's bc-5 analysis),
* edge-array reads are short sequential bursts per vertex,
* property gathers (``value[neighbour]``) are **irregular, dependent**
  loads — the unprefetchable part that punishes aggressive prefetchers
  (IPCP's GS class) with useless traffic.

Graphs: ``kron`` (RMAT-style power law), ``urand`` (uniform random),
``road`` (lattice with high locality), ``web`` (power law with locality).
"""

from __future__ import annotations

import random
from array import array
from functools import lru_cache
from typing import Callable, Dict, List, Sequence, Tuple

from repro.workloads.trace import Trace

LINE = 64

# Virtual layout of the graph data structures (distinct regions).
_OFFSETS_BASE = 0x2000_0000
_EDGES_BASE = 0x2800_0000
_VALUES_BASE = 0x3000_0000
_FRONTIER_BASE = 0x3800_0000
_PARENT_BASE = 0x4000_0000

# The IPs of the kernel's loads (one per logical access site).
IP_OFFSETS = 0x430001   # offsets[u], offsets[u+1]
IP_EDGES = 0x430002     # edges[e] (4-byte ids: 16 per line)
IP_VALUES = 0x430003    # value[v] gather (dependent)
IP_PARENT = 0x430004    # parent/dist[v] gather (dependent, 2nd property)
IP_FRONTIER = 0x430005  # frontier[i] walk (regular)
IP_UPDATE = 0x430006    # value[u] update (write)


Graph = Tuple[Sequence[int], Sequence[int]]  # CSR: offsets, edges


def _rmat_graph(nodes: int, edges: int, seed: int, locality: float = 0.0) -> Graph:
    """Power-law-ish graph via preferential random endpoints.

    Vertex labels are scrambled with a multiplicative permutation, as
    Graph500's Kronecker generator does, so hub vertices are scattered
    across the id space instead of clustering at low ids.
    """
    rng = random.Random(seed)
    prime = 2654435761

    def scramble(x: int) -> int:
        return (x * prime + seed) % nodes

    adj: List[List[int]] = [[] for _ in range(nodes)]
    for _ in range(edges):
        # Squaring a uniform pick skews towards low ids (hubs) before
        # the label scramble spreads them out.
        u = int((rng.random() ** 2) * nodes) % nodes
        if locality > 0 and rng.random() < locality:
            v = min(nodes - 1, u + rng.randrange(1, 64))
        else:
            v = int((rng.random() ** 2) * nodes) % nodes
        if u != v:
            adj[scramble(u)].append(scramble(v))
    return _to_csr(adj)


def _urand_graph(nodes: int, edges: int, seed: int) -> Graph:
    rng = random.Random(seed)
    adj: List[List[int]] = [[] for _ in range(nodes)]
    for _ in range(edges):
        u = rng.randrange(nodes)
        v = rng.randrange(nodes)
        if u != v:
            adj[u].append(v)
    return _to_csr(adj)


def _road_graph(nodes: int, seed: int) -> Graph:
    """Lattice-like: neighbours are id-adjacent (high spatial locality)."""
    rng = random.Random(seed)
    adj: List[List[int]] = [[] for _ in range(nodes)]
    for u in range(nodes):
        for d in (1, 2):
            if u + d < nodes:
                adj[u].append(u + d)
        if rng.random() < 0.05:
            adj[u].append(rng.randrange(nodes))
    return _to_csr(adj)


def _to_csr(adj: List[List[int]]) -> Graph:
    offsets = [0]
    edges: List[int] = []
    for neighbours in adj:
        edges.extend(neighbours)
        offsets.append(len(edges))
    return offsets, edges


GRAPHS: Dict[str, Callable[[float], Graph]] = {
    "kron": lambda scale: _rmat_graph(
        int(60000 * scale), int(260000 * scale), seed=7
    ),
    "urand": lambda scale: _urand_graph(
        int(60000 * scale), int(260000 * scale), seed=8
    ),
    "road": lambda scale: _road_graph(int(90000 * scale), seed=9),
    "web": lambda scale: _rmat_graph(
        int(60000 * scale), int(260000 * scale), seed=10, locality=0.5
    ),
}


@lru_cache(maxsize=8)
def _graph_memo(graph: str, scale: float) -> Graph:
    offsets, edges = GRAPHS[graph](scale)
    return array("q", offsets), array("q", edges)


def built_graph(graph: str, scale: float = 1.0) -> Graph:
    """The ``GRAPHS[graph]`` CSR at ``min(1.0, scale)``, built once per
    process.

    Every GAP trace of a campaign or figure walks one of a handful of
    graphs, and building one costs ~20x the walk that records a trace,
    so the CSR is memoised (bounded: at most 8 graphs held) as
    read-only-by-convention ``array('q')`` columns.  The kernels only
    index it, so traces are identical to a fresh build.
    """
    return _graph_memo(graph, min(1.0, scale))


MAX_DEGREE_RECORDED = 24  # hub-node cap so short windows stay representative


class _Recorder:
    """Collects the loads a kernel performs, with dependency tagging."""

    def __init__(self, name: str, max_records: int) -> None:
        self.trace = Trace(name=name, suite="gap")
        self.max_records = max_records

    def edge_range(self, offsets, u):
        """Edge indices to record for node ``u``, hub-capped."""
        start, stop = offsets[u], offsets[u + 1]
        return range(start, min(stop, start + MAX_DEGREE_RECORDED))

    @property
    def full(self) -> bool:
        return len(self.trace.records) >= self.max_records

    def offsets(self, u: int, gap: int = 9) -> None:
        self.trace.append(IP_OFFSETS, _OFFSETS_BASE + (u * 8 // LINE) * LINE,
                          gap=gap)

    def edge(self, e: int, gap: int = 6) -> None:
        # Edge ids are 4-byte: 16 per cache line (GAP uses 32-bit ids).
        self.trace.append(IP_EDGES, _EDGES_BASE + (e * 4 // LINE) * LINE,
                          gap=gap)

    def value(self, v: int, gap: int = 9, dep: int = 1) -> None:
        self.trace.append(IP_VALUES, _VALUES_BASE + (v * 8 // LINE) * LINE,
                          gap=gap, dep=dep)

    def parent(self, v: int, gap: int = 7, dep: int = 1) -> None:
        """Second per-vertex property gather (dist/parent array)."""
        self.trace.append(IP_PARENT, _PARENT_BASE + (v * 8 // LINE) * LINE,
                          gap=gap, dep=dep)

    def frontier(self, i: int, gap: int = 9) -> None:
        self.trace.append(IP_FRONTIER, _FRONTIER_BASE + (i * 8 // LINE) * LINE,
                          gap=gap)

    def update(self, u: int, gap: int = 6) -> None:
        self.trace.append(IP_UPDATE, _VALUES_BASE + (u * 8 // LINE) * LINE,
                          is_write=True, gap=gap)


def bfs_trace(graph: Graph, name: str, max_records: int) -> Trace:
    offsets, edges = graph
    nodes = len(offsets) - 1
    rec = _Recorder(name, max_records)
    visited = [False] * nodes
    for source in range(0, nodes, max(1, nodes // 8)):
        if rec.full:
            break
        if visited[source]:
            continue
        frontier = [source]
        visited[source] = True
        while frontier and not rec.full:
            next_frontier = []
            for i, u in enumerate(frontier):
                rec.frontier(i)
                rec.offsets(u)
                for e in rec.edge_range(offsets, u):
                    rec.edge(e)
                    v = edges[e]
                    rec.value(v)   # visited[v] check: dependent gather
                    rec.parent(v)  # parent[v] update path: dependent gather
                    if not visited[v]:
                        visited[v] = True
                        next_frontier.append(v)
                if rec.full:
                    break
            frontier = next_frontier
    return rec.trace


def pagerank_trace(graph: Graph, name: str, max_records: int) -> Trace:
    offsets, edges = graph
    nodes = len(offsets) - 1
    rec = _Recorder(name, max_records)
    while not rec.full:
        for u in range(nodes):
            rec.offsets(u)
            for e in rec.edge_range(offsets, u):
                rec.edge(e)
                rec.value(edges[e])
                rec.parent(edges[e])
            rec.update(u)
            if rec.full:
                break
    return rec.trace


def sssp_trace(graph: Graph, name: str, max_records: int) -> Trace:
    """Bellman-Ford-style relaxation rounds."""
    offsets, edges = graph
    nodes = len(offsets) - 1
    rec = _Recorder(name, max_records)
    rng = random.Random(99)
    while not rec.full:
        # Each round relaxes a pseudo-frontier of active vertices.
        active = sorted(rng.sample(range(nodes), max(1, nodes // 6)))
        for i, u in enumerate(active):
            rec.frontier(i)
            rec.offsets(u)
            for e in rec.edge_range(offsets, u):
                rec.edge(e)
                rec.value(edges[e])
                rec.parent(edges[e])
                rec.update(edges[e])
            if rec.full:
                break
    return rec.trace


def bc_trace(graph: Graph, name: str, max_records: int) -> Trace:
    """Betweenness centrality: BFS passes + dependency back-propagation.

    Matches the paper's bc-5 description — one very regular IP (the
    successor-list walk) among otherwise chaotic gathers.
    """
    offsets, edges = graph
    nodes = len(offsets) - 1
    rec = _Recorder(name, max_records)
    rng = random.Random(17)
    while not rec.full:
        order = list(range(0, nodes, 2))
        for i, u in enumerate(order):
            rec.frontier(i)           # regular: the paper's covered IP
            rec.offsets(u)
            for e in rec.edge_range(offsets, u):
                rec.edge(e)
                rec.value(edges[e])
            # chaotic dependency updates
            rec.value(rng.randrange(nodes), dep=1)
            if rec.full:
                break
    return rec.trace


def cc_trace(graph: Graph, name: str, max_records: int) -> Trace:
    """Label propagation connected components."""
    offsets, edges = graph
    nodes = len(offsets) - 1
    rec = _Recorder(name, max_records)
    labels = list(range(nodes))
    while not rec.full:
        for u in range(nodes):
            rec.offsets(u)
            for e in rec.edge_range(offsets, u):
                rec.edge(e)
                v = edges[e]
                rec.value(v)
                if labels[v] < labels[u]:
                    labels[u] = labels[v]
                    rec.update(u)
            if rec.full:
                break
    return rec.trace


KERNELS: Dict[str, Callable[[Graph, str, int], Trace]] = {
    "bfs": bfs_trace,
    "pr": pagerank_trace,
    "sssp": sssp_trace,
    "bc": bc_trace,
    "cc": cc_trace,
}


def gap_suite(
    scale: float = 1.0,
    kernels: List[str] | None = None,
    graphs: List[str] | None = None,
) -> List[Trace]:
    """GAP-like traces (default: 5 kernels × 4 graphs = 20 traces)."""
    kernels = kernels or list(KERNELS)
    graphs = graphs or list(GRAPHS)
    max_records = max(1000, int(12000 * scale))
    return [
        KERNELS[kernel](built_graph(gname, scale), f"{kernel}-{gname}",
                        max_records)
        for kernel in kernels
        for gname in graphs
    ]


def gap_trace(kernel: str, graph: str, scale: float = 1.0) -> Trace:
    """One GAP-like trace, e.g. ``gap_trace('bfs', 'kron')``."""
    return KERNELS[kernel](built_graph(graph, scale), f"{kernel}-{graph}",
                           max(1000, int(12000 * scale)))
