"""The ladder's four workloads: frozen sizing and seeded generators.

Everything that decides *what* is measured lives here as a constant, each
with the seed-commit measurement that justified it (commit 19d18a8, 2-vCPU
Xeon 2.1 GHz sandbox, CPython 3.11).  Nothing is calibrated at run time:
the harness reads these constants, draws data, queries, Zipf picks, arrival
instants and write batches from ``--seed``, and hands the program only the
resulting ``Storage`` and ``Expression`` objects.

Why these four (the README has the long form):

* ``report_oj_warm``    engine-bound: big tables, warm plan cache;
* ``adhoc_plan_cold``   optimizer-bound: tiny tables, every query cold;
* ``cyclic_skew_warm``  strategy-bound: intermediate blow-up decides;
* ``mixed_open_writes`` queueing + hit-then-invalidate under an open loop.

The first three stress disjoint layers, so an optimisation aimed at one has
a workload that exercises it and two that must not move.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.algebra.nulls import NULL
from repro.algebra.predicates import Comparison, IsNull, Predicate, eq
from repro.algebra.tuples import Row
from repro.core.enumeration import root_operator
from repro.core.expressions import (
    Expression,
    Join,
    LeftOuterJoin,
    Rel,
    Restrict,
    RightOuterJoin,
)
from repro.core.graph import QueryGraph
from repro.datagen.random_db import random_database
from repro.datagen.topologies import random_nice_graph
from repro.datagen.workloads import example1_storage, sales_storage
from repro.engine.storage import Storage

# ---------------------------------------------------------------------------
# Fixed conditions (all workloads)
# ---------------------------------------------------------------------------

#: Service threads.  The sandbox has 2 vCPUs; never ``os.cpu_count()``.
SERVICE_WORKERS = 2

#: Zipf exponent of shape popularity (shape k drawn with weight 1/(k+1)^s).
ZIPF_SKEW = 1.2

#: Rounds a run's measuring time is cut into; a metric is the median of
#: its per-round values, so one disturbed round cannot move it.
ROUNDS = 5

#: Length of the pre-drawn Zipf pick sequence (cycled if a run outlasts it).
PICKS = 8192

WORKLOADS = ("report_oj_warm", "adhoc_plan_cold", "cyclic_skew_warm", "mixed_open_writes")


@dataclass(frozen=True)
class Sizing:
    """Table sizes of one run mode (full, or the ``--smoke`` sizing)."""

    #: report_oj_warm.  Seed commit, served through the service: sales
    #: report 31 ms, snowflake 50 ms, chain 53 ms, the restricted and
    #: Example-1 shapes 0.5-17 ms -> p50 ~ 33 ms, p95 ~ 80 ms.
    report_customers: int
    report_wide_rows: int
    report_example1_rows: int
    #: adhoc_plan_cold.  Seed commit: cold plan 13 ms median (p95 75 ms)
    #: against 0.3 ms of execution; optimizer share of the query 0.98.
    adhoc_pool: int
    #: cyclic_skew_warm: (m, k) of the zero-spike, rows of the Zipf and
    #: needle tables.  Seed commit, served (binary DP plan): triangle
    #: 23 ms, square 33 ms, clique4 55 ms, needle chain/star 12 ms, Zipf
    #: triangle 4 ms; the same spike triangle takes 0.8 ms on the Leapfrog
    #: path the optimizer chose and 0.5 ms on SQLite.
    spike_triangle: Tuple[int, int]
    spike_clique: Tuple[int, int]
    zipf_rows: int
    needle_rows: int
    #: mixed_open_writes.  Seed commit: 0.5-27 ms per shape, closed-loop
    #: p50 4 ms, p95 15 ms, ~200 q/s with the writes running.
    mixed_customers: int
    mixed_wide_rows: int
    mixed_spike: Tuple[int, int]
    mixed_needle_rows: int
    #: Rows of the Example-1 tables R2 and R3, which no mixed shape reads:
    #: bystanders a re-plan's statistics view copies and re-indexes all
    #: the same, as in a database with more tables than one query joins.
    mixed_bystander_rows: int


FULL = Sizing(
    report_customers=1150,
    report_wide_rows=1800,
    report_example1_rows=1800,
    adhoc_pool=600,
    spike_triangle=(4, 12),
    spike_clique=(4, 16),
    zipf_rows=40,
    needle_rows=1500,
    mixed_customers=150,
    mixed_wide_rows=300,
    mixed_spike=(6, 8),
    mixed_needle_rows=400,
    mixed_bystander_rows=300,
)

SMOKE = Sizing(
    report_customers=80,
    report_wide_rows=150,
    report_example1_rows=150,
    adhoc_pool=60,
    spike_triangle=(3, 6),
    spike_clique=(3, 6),
    zipf_rows=24,
    needle_rows=300,
    mixed_customers=40,
    mixed_wide_rows=80,
    mixed_spike=(4, 5),
    mixed_needle_rows=120,
    mixed_bystander_rows=80,
)

# -- adhoc_plan_cold ---------------------------------------------------------

#: Tiny tables of the cold workload: 8 core-named and 6 forest-named, which
#: is what ``random_nice_graph`` calls its nodes.
ADHOC_CORE = tuple(f"C{i + 1}" for i in range(8))
ADHOC_FOREST = tuple(f"F{i + 1}" for i in range(6))
ADHOC_ROWS = (14, 24)
ADHOC_B_DOMAIN = 8

#: Kind of pool entry i is ``ADHOC_KINDS[i % 10]``, so the shares are exact:
#: 0.6 random nice graphs, 0.2 stars/snowflakes with outerjoined leaves,
#: 0.1 strong restrictions that convert outerjoins (Section 4), 0.1 declines
#: (half Example-2-style non-nice graphs, half IS NULL probes).
ADHOC_KINDS = (
    "nice", "star", "nice", "convert", "nice",
    "nice", "star", "nice", "decline", "nice",
)
#: Share of the pool Theorem 1 certifies freely reorderable (all but the
#: declines); ``core.reorderability.free_share`` must equal it exactly.
ADHOC_FREE_SHARE = 0.9

#: Queries of the untimed warm-up pass of the cold workload (code paths
#: warm, plan cache cleared afterwards).
ADHOC_WARMUP = 24

# -- mixed_open_writes -------------------------------------------------------

#: Offered rates (queries/s) of the traced run's open loop, frozen.  Seed
#: commit: one closed-loop client with the writes running completes
#: 160-185 q/s on this mix and the open loop's knee is ~190 q/s, so the
#: rates are ~0.35x, 0.6x and 1.25x of capacity: the two lower ones meet
#: the limit below on every seed tried (p95 25-120 ms), the top one sheds
#: on every seed.
MIXED_RATES = (60.0, 100.0, 215.0)
#: The rate ``service.open_p50_ms`` / ``open_p95_ms`` / ``late_share`` are
#: read at: the lowest, where queueing amplifies the host's speed changes
#: least.
MIXED_LATENCY_RATE = 0

#: Latency limit on p95 sojourn for ``service.sustained_qps`` and
#: ``service.late_share``.  Seed commit: p95 is 25-120 ms at the two lower
#: rates and past 1 s (with shedding) at the top one, so 250 ms separates
#: them with room on both sides.
LATENCY_LIMIT_MS = 250.0

#: Per-query deadline and admission queue of the open loop.
DEADLINE_S = 10.0
QUEUE_SIZE = 32

#: A write batch lands about every WRITE_EVERY_S (seeded jitter of
#: +-WRITE_JITTER_S), WRITE_BATCH rows into one of the write targets in
#: rotation.  Each bumps ``Storage.generation``: every cached plan is stale
#: and the next query of each of the ten shapes re-plans (~95 ms of
#: planning per write at the seed commit: 5 % of the closed loop's time,
#: 3 % of its queries, so p95 stays in the dearest shape's mode while
#: ``cpu_ms_per_query`` and ``qps`` carry the cost of invalidation).
WRITE_EVERY_S = 2.0
WRITE_JITTER_S = 0.3
WRITE_BATCH = 4


# ---------------------------------------------------------------------------
# Seeded streams
# ---------------------------------------------------------------------------


def stream(seed: int, *tags: str) -> random.Random:
    """An independent, process-stable random stream per purpose.

    String seeds hash through SHA-512 inside ``random.seed``, so the
    stream does not depend on ``PYTHONHASHSEED``; separate tags keep a
    change to one generator from shifting every other draw.
    """
    return random.Random(f"ladder/{seed}/{'/'.join(tags)}")


def zipf_weights(n: int) -> List[float]:
    return [1.0 / (k + 1) ** ZIPF_SKEW for k in range(n)]


def zipf_picks(seed: int, workload: str, n_shapes: int, count: int = PICKS) -> List[int]:
    return stream(seed, workload, "picks").choices(
        range(n_shapes), weights=zipf_weights(n_shapes), k=count
    )


# ---------------------------------------------------------------------------
# Shapes and workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """One query text of a workload."""

    name: str
    query: Expression
    #: What the generator planted: "free" (nice + strong, reorderable),
    #: "convert" (free after Section-4 conversion) or "decline".
    kind: str = "free"


@dataclass
class Write:
    """One scheduled insert batch of ``mixed_open_writes``."""

    at_s: float
    table: str
    rows: List[Row]


@dataclass
class Workload:
    name: str
    storage: Storage
    shapes: List[Shape]
    #: Indices into ``shapes`` in the order a client sends them.
    picks: List[int]
    #: "warm": plan cache kept; "cold": cleared whenever the picks wrap, so
    #: every query plans from scratch however large the cache is.
    cache: str = "warm"
    #: The insert batches due within a run of the given length (s).
    writes: Callable[[float], List[Write]] = field(default=lambda seconds: [])
    #: The traced run offers this workload at ``MIXED_RATES`` in an open loop.
    open_loop: bool = False


def _absorb(storage: Storage, other: Storage) -> None:
    for name in other:
        storage.add_table(other[name])


def sample_tree(graph: QueryGraph, rng: random.Random) -> Expression:
    """A random implementing tree by random spanning-tree cuts.

    ``repro.core.sample_implementing_tree`` draws uniformly but counts
    every connected subset first (8 ms for ten relations at the seed
    commit; 600 of them would dominate ``setup_s``).  Uniformity is not
    needed here, only a seeded tree the cut rule accepts: split the node
    set along a random edge of a random spanning tree, ask the library's
    own ``root_operator`` for the operator of that cut, recurse.
    """
    adjacency: Dict[str, List[str]] = {n: [] for n in graph.nodes}
    for pair in graph.join_edges:
        u, v = sorted(pair)
        adjacency[u].append(v)
        adjacency[v].append(u)
    for u, v in graph.oj_edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    for neighbours in adjacency.values():
        neighbours.sort()

    def spanning_edges(nodes: frozenset) -> List[Tuple[str, str]]:
        root = rng.choice(sorted(nodes))
        seen, frontier, edges = {root}, [root], []
        while frontier:
            u = frontier.pop(rng.randrange(len(frontier)))
            for v in adjacency[u]:
                if v in nodes and v not in seen:
                    seen.add(v)
                    frontier.append(v)
                    edges.append((u, v))
        return edges

    def component(nodes: frozenset, edges: Sequence[Tuple[str, str]], start: str) -> frozenset:
        links: Dict[str, List[str]] = {n: [] for n in nodes}
        for u, v in edges:
            links[u].append(v)
            links[v].append(u)
        seen, stack = {start}, [start]
        while stack:
            for v in links[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return frozenset(seen)

    def build(nodes: frozenset) -> Optional[Expression]:
        if len(nodes) == 1:
            return Rel(next(iter(nodes)))
        edges = spanning_edges(nodes)
        order = list(range(len(edges)))
        rng.shuffle(order)
        for cut in order:
            rest = edges[:cut] + edges[cut + 1:]
            side_a = component(nodes, rest, edges[cut][0])
            side_b = nodes - side_a
            if rng.random() < 0.5:
                side_a, side_b = side_b, side_a
            operator = root_operator(graph, side_a, side_b)
            if operator is None:
                continue
            left, right = build(side_a), build(side_b)
            if left is None or right is None:
                continue
            kind, predicate = operator
            if kind == "join":
                return Join(left, right, predicate)
            if kind == "loj":
                return LeftOuterJoin(left, right, predicate)
            return RightOuterJoin(left, right, predicate)
        return None

    tree = build(graph.nodes)
    if tree is None:
        raise ValueError("graph has no implementing tree along spanning-tree cuts")
    return tree


def _ab(names: Sequence[str]) -> Dict[str, List[str]]:
    return {n: [f"{n}.a", f"{n}.b"] for n in names}


# ---------------------------------------------------------------------------
# report_oj_warm
# ---------------------------------------------------------------------------

_SNOW = ("W0", "W1a", "W1b", "W2a", "W2b", "W3a", "W3b")
_CHAIN = ("N1", "N2", "N3", "N4", "N5")


def _sales_graph() -> QueryGraph:
    return QueryGraph.from_edges(
        join=[("CUSTOMER", "ORDERS", eq("CUSTOMER.ck", "ORDERS.ck"))],
        oj=[
            ("ORDERS", "SHIPMENT", eq("ORDERS.ok", "SHIPMENT.ok")),
            ("CUSTOMER", "PROFILE", eq("CUSTOMER.ck", "PROFILE.ck")),
        ],
    )


def _sales_written() -> Expression:
    """``PROFILE <- CUSTOMER - ORDERS -> SHIPMENT`` as the introduction writes it."""
    core = Join(Rel("CUSTOMER"), Rel("ORDERS"), eq("CUSTOMER.ck", "ORDERS.ck"))
    shipped = LeftOuterJoin(core, Rel("SHIPMENT"), eq("ORDERS.ok", "SHIPMENT.ok"))
    return RightOuterJoin(Rel("PROFILE"), shipped, eq("CUSTOMER.ck", "PROFILE.ck"))


def _snowflake_graph() -> QueryGraph:
    """Hub W0, one joined arm, two outerjoined arms, each two tables long."""
    return QueryGraph.from_edges(
        join=[("W0", "W1a", eq("W0.a", "W1a.a")), ("W1a", "W1b", eq("W1a.b", "W1b.a"))],
        oj=[
            ("W0", "W2a", eq("W0.a", "W2a.a")),
            ("W2a", "W2b", eq("W2a.b", "W2b.a")),
            ("W0", "W3a", eq("W0.a", "W3a.a")),
            ("W3a", "W3b", eq("W3a.b", "W3b.a")),
        ],
    )


def _chain_graph() -> QueryGraph:
    """N1 - N2 - N3 -> N4 -> N5: a join chain that ends in ``out`` edges."""
    return QueryGraph.from_edges(
        join=[("N1", "N2", eq("N1.a", "N2.a")), ("N2", "N3", eq("N2.b", "N3.b"))],
        oj=[("N3", "N4", eq("N3.a", "N4.a")), ("N4", "N5", eq("N4.b", "N5.b"))],
    )


def _wide_tables(rng: random.Random, names: Sequence[str], rows: int, domain: int) -> Storage:
    db = random_database(
        _ab(names),
        seed=rng,
        max_rows=rows,
        min_rows=rows * 19 // 20,
        domain=domain,
        null_probability=0.02,
        duplicate_probability=0.05,
    )
    return Storage.from_database(db)


def _report_storage(seed: int, customers: int, wide_rows: int, example1_rows: int) -> Storage:
    storage = Storage()
    _absorb(storage, sales_storage(n_customers=customers, seed=stream(seed, "report", "sales")))
    _absorb(storage, example1_storage(example1_rows))
    _absorb(storage, _wide_tables(stream(seed, "report", "snow"), _SNOW, wide_rows, wide_rows))
    # The chain joins on a domain of two thirds of the rows, so each edge
    # fans out 1.5x and the chain, not the snowflake, is the dearest shape.
    _absorb(
        storage,
        _wide_tables(stream(seed, "report", "chain"), _CHAIN, wide_rows, wide_rows * 2 // 3),
    )
    return storage


def _report_shapes(seed: int, wide_rows: int) -> List[Shape]:
    """Eight query texts in Zipf-rank order.

    Rank 1 (0.43 of picks) and rank 6 are the sales report, which puts
    the median inside its cost mode; rank 3 (0.115) is the dearest shape,
    which puts p95 inside *its* mode; ranks 4, 5, 7, 8 (0.22) are the
    cheap restricted and Example-1 queries below both.  A percentile that
    sits inside one mode repeats; one that sits between two flips.
    """
    rng = stream(seed, "report", "trees")
    sales, snow, chain = _sales_graph(), _snowflake_graph(), _chain_graph()
    selective = wide_rows // 12
    return [
        Shape("sales_written", _sales_written()),
        Shape("snowflake_oj", sample_tree(snow, rng)),
        Shape("chain_out", sample_tree(chain, rng)),
        Shape(
            "sales_big_orders",
            Restrict(sample_tree(sales, rng), Comparison("ORDERS.total", ">", 460)),
        ),
        Shape(
            "example1",
            Join(
                Rel("R1"),
                LeftOuterJoin(Rel("R2"), Rel("R3"), eq("R2.j", "R3.j")),
                eq("R1.k", "R2.k"),
            ),
        ),
        Shape("sales_sampled", sample_tree(sales, rng)),
        Shape(
            "snowflake_selective",
            Restrict(sample_tree(snow, rng), Comparison("W0.b", "<", selective)),
        ),
        Shape(
            "chain_selective",
            Restrict(sample_tree(chain, rng), Comparison("N1.b", "<", selective)),
        ),
    ]


def report_oj_warm(seed: int, sizing: Sizing) -> Workload:
    shapes = _report_shapes(seed, sizing.report_wide_rows)
    return Workload(
        name="report_oj_warm",
        storage=_report_storage(
            seed, sizing.report_customers, sizing.report_wide_rows, sizing.report_example1_rows
        ),
        shapes=shapes,
        picks=zipf_picks(seed, "report", len(shapes)),
    )


# ---------------------------------------------------------------------------
# adhoc_plan_cold
# ---------------------------------------------------------------------------


def _tiny_storage(seed: int) -> Storage:
    """14 tables of 14-24 rows; ``.a`` is a near-key, ``.b`` a small domain.

    ``.a`` values are 0..rows-1 with a few duplicates and nulls, so every
    ``.a = .a`` edge matches about one row per row and an eleven-relation
    query neither dies out nor explodes: execution stays ~1 ms while the
    oracle still has rows to compare.
    """
    rng = stream(seed, "adhoc", "tables")
    storage = Storage()
    for name in ADHOC_CORE + ADHOC_FOREST:
        n = rng.randint(*ADHOC_ROWS)
        rows = []
        for i in range(n):
            a = rng.randrange(n) if rng.random() < 0.12 else i
            rows.append(
                {
                    f"{name}.a": NULL if rng.random() < 0.04 else a,
                    f"{name}.b": NULL if rng.random() < 0.04 else rng.randrange(ADHOC_B_DOMAIN),
                }
            )
        storage.create_table(name, [f"{name}.a", f"{name}.b"], rows)
    return storage


def _core_restriction(rng: random.Random, relation: str) -> Predicate:
    op = rng.choice(("<", "<=", ">", ">=", "<>", "="))
    return Comparison(f"{relation}.b", op, rng.randrange(1, ADHOC_B_DOMAIN))


def _star_graph(rng: random.Random, relations: int) -> QueryGraph:
    """A star or snowflake over the tiny tables with outerjoined leaves."""
    n_forest = rng.randint(2, min(len(ADHOC_FOREST), relations - 2))
    core = list(ADHOC_CORE[: relations - n_forest])
    hub = core[0]
    join = []
    for i, node in enumerate(core[1:]):
        # Star when every dimension hangs off the hub; snowflake when a
        # dimension continues the previous one.
        anchor = core[i] if i and rng.random() < 0.35 else hub
        join.append((anchor, node, eq(f"{anchor}.a", f"{node}.a")))
    oj = []
    for node in ADHOC_FOREST[:n_forest]:
        anchor = rng.choice(core)
        oj.append((anchor, node, eq(f"{anchor}.a", f"{node}.a")))
    return QueryGraph.from_edges(join=join, oj=oj)


def _nice_graph(rng: random.Random, relations: int) -> QueryGraph:
    n_core = rng.randint(max(2, relations - len(ADHOC_FOREST)), min(len(ADHOC_CORE), relations - 1))
    scenario = random_nice_graph(
        n_core, relations - n_core, seed=rng, extra_join_edges=rng.randint(0, 2)
    )
    return scenario.graph


def _forest_nodes(graph: QueryGraph) -> List[str]:
    return sorted(v for _u, v in graph.oj_edges)


def _core_nodes(graph: QueryGraph) -> List[str]:
    supplied = set(_forest_nodes(graph))
    return sorted(n for n in graph.nodes if n not in supplied)


def _graft(tree: Expression, leaf: str, replacement: Expression) -> Expression:
    """``tree`` with the base relation ``leaf`` replaced by ``replacement``."""
    if isinstance(tree, Rel):
        return replacement if tree.name == leaf else tree
    left, right = tree.children()
    return tree.with_parts(_graft(left, leaf, replacement), _graft(right, leaf, replacement))


def _adhoc_query(rng: random.Random, kind: str, index: int) -> Tuple[Expression, str, tuple]:
    """One pool entry: (query, planted kind, structural key for dedup)."""
    # 7..11 relations in equal shares over any 50 consecutive entries: the
    # DP's cost grows fast with the size, and a pool that happened to draw
    # more big graphs moved p95 by a fifth between seeds.
    relations = 7 + (index // len(ADHOC_KINDS)) % 5
    graph = _star_graph(rng, relations) if kind == "star" else _nice_graph(rng, relations)
    core = _core_nodes(graph)
    restrictions = [
        _core_restriction(rng, relation)
        for relation in rng.sample(core, rng.randint(1, min(2, len(core))))
    ]
    query: Expression = sample_tree(graph, rng)
    planted = "free"
    if kind == "convert":
        # Strong in a null-supplied relation: Section 4 turns every
        # outerjoin on the path to it into a join.
        planted = "convert"
        victim = rng.choice(_forest_nodes(graph))
        restrictions.append(Comparison(f"{victim}.b", ">=", rng.randrange(0, 3)))
    elif kind == "decline" and index % 20 < 10:
        # Example 2, ``X -> (Y - Z)``: a join edge that meets a
        # null-supplied node.  The graph is defined but not nice, so the
        # written order must stand.  The join is written *inside* the
        # null-supplied operand; above it, Section 4 would turn the
        # outerjoin into a join and the query would be reorderable.
        planted = "decline"
        leaf = rng.choice(_forest_nodes(graph))
        spare = rng.choice([n for n in ADHOC_CORE + ADHOC_FOREST if n not in graph.nodes])
        edge = eq(f"{leaf}.a", f"{spare}.a")
        query = _graft(query, leaf, Join(Rel(leaf), Rel(spare), edge))
        graph = QueryGraph.from_edges(
            join=[(*sorted(pair), p) for pair, p in graph.join_edges.items()] + [(leaf, spare, edge)],
            oj=[(u, v, p) for (u, v), p in graph.oj_edges.items()],
        )
    elif kind == "decline":
        # An IS NULL probe for padded tuples cannot sink below the
        # outerjoin that pads them; pushdown parks it and the pipeline
        # keeps the written tree.
        planted = "decline"
        restrictions.append(IsNull(f"{rng.choice(_forest_nodes(graph))}.b"))
    for predicate in restrictions:
        query = Restrict(query, predicate)
    key = (
        tuple(sorted(tuple(sorted(pair)) for pair in graph.join_edges)),
        tuple(sorted(graph.oj_edges)),
        tuple(sorted(repr(p) for p in restrictions)),
    )
    return query, planted, key


def adhoc_pool(seed: int, size: int) -> List[Shape]:
    """``size`` queries with pairwise distinct plan-cache fingerprints.

    The fingerprint digests the graph's nodes, edges and pushed filters,
    so distinct (edges, restrictions) keys give distinct fingerprints; a
    repeated key is redrawn.
    """
    rng = stream(seed, "adhoc", "pool")
    seen: set = set()
    pool: List[Shape] = []
    while len(pool) < size:
        index = len(pool)
        query, planted, key = _adhoc_query(rng, ADHOC_KINDS[index % len(ADHOC_KINDS)], index)
        if key in seen:
            continue
        seen.add(key)
        pool.append(Shape(f"adhoc{index:04d}", query, planted))
    return pool


def adhoc_plan_cold(seed: int, sizing: Sizing) -> Workload:
    pool = adhoc_pool(seed, sizing.adhoc_pool)
    return Workload(
        name="adhoc_plan_cold",
        storage=_tiny_storage(seed),
        shapes=pool,
        picks=list(range(len(pool))),
        cache="cold",
    )


# ---------------------------------------------------------------------------
# cyclic_skew_warm
# ---------------------------------------------------------------------------


def _spike_pairs(m: int, k: int, needles: int = 5) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """The AGM zero-spike: k copies of (0, j) and (j, 0), plus diagonal needles."""
    spike: List[Tuple[int, int]] = []
    for j in range(1, m + 1):
        spike += [(0, j)] * k + [(j, 0)] * k
    diag = [(m + 1 + t, m + 1 + t) for t in range(needles)]
    return spike, diag


def _triangle_query(names: Sequence[str]) -> Expression:
    r1, r2, r3 = names
    return Join(
        Join(Rel(r1), Rel(r2), eq(f"{r1}.a", f"{r2}.a")),
        Rel(r3),
        eq(f"{r2}.b", f"{r3}.a") & eq(f"{r3}.b", f"{r1}.b"),
    )


def _square_query(names: Sequence[str]) -> Expression:
    r1, r2, r3, r4 = names
    return Join(
        Join(
            Join(Rel(r1), Rel(r2), eq(f"{r1}.b", f"{r2}.a")),
            Rel(r3),
            eq(f"{r2}.b", f"{r3}.a"),
        ),
        Rel(r4),
        eq(f"{r3}.b", f"{r4}.a") & eq(f"{r4}.b", f"{r1}.a"),
    )


def _clique_query(names: Sequence[str]) -> Expression:
    r1, r2, r3, r4 = names
    return Join(
        Join(
            Join(Rel(r1), Rel(r2), eq(f"{r1}.a", f"{r2}.a")),
            Rel(r3),
            eq(f"{r1}.b", f"{r3}.a") & eq(f"{r2}.b", f"{r3}.b"),
        ),
        Rel(r4),
        eq(f"{r1}.c", f"{r4}.a") & eq(f"{r2}.c", f"{r4}.b") & eq(f"{r3}.c", f"{r4}.c"),
    )


def _add_spike_triangle(storage: Storage, rng: random.Random, names: Sequence[str], m: int, k: int) -> None:
    spike, diag = _spike_pairs(m, k)
    for name in names:
        pairs = spike + diag
        rng.shuffle(pairs)
        storage.create_table(
            name, [f"{name}.a", f"{name}.b"], [{f"{name}.a": a, f"{name}.b": b} for a, b in pairs]
        )


def _add_spike_clique(storage: Storage, rng: random.Random, names: Sequence[str], m: int, k: int) -> None:
    spike, diag = _spike_pairs(m, k)
    anchor = names[0]
    rows = [{f"{anchor}.a": 0, f"{anchor}.b": 0, f"{anchor}.c": 0}]
    rows += [{f"{anchor}.a": v, f"{anchor}.b": v, f"{anchor}.c": v} for v, _w in diag]
    storage.create_table(anchor, [f"{anchor}.a", f"{anchor}.b", f"{anchor}.c"], rows)
    for name in names[1:]:
        rows = [{f"{name}.a": 0, f"{name}.b": p, f"{name}.c": q} for p, q in spike]
        rows += [{f"{name}.a": v, f"{name}.b": v, f"{name}.c": w} for v, w in diag]
        rng.shuffle(rows)
        storage.create_table(name, [f"{name}.a", f"{name}.b", f"{name}.c"], rows)


def _add_zipf(storage: Storage, rng: random.Random, names: Sequence[str], rows: int) -> None:
    """Zipf(1.1)-skewed ``(a, b)`` tables with fixed marginals and seeded noise.

    Value pair ``(x, y)`` gets ``round(rows * w_x * w_y)`` copies, so the
    heavy-hitter cell that decides a cyclic join's output has the same
    size under every seed; a twentieth of the rows are then drawn at
    random from the same law.  Plain ``random_database(zipf_skew=...)``
    at this size leaves ~3 rows in the (0, 0) cell with Poisson spread,
    and the square's cost (fourth power of it) swung 19-56 ms by seed.
    """
    domain = max(rows // 4, 6)
    weights = [1.0 / (k + 1) ** 1.1 for k in range(domain)]
    total = sum(weights)
    weights = [w / total for w in weights]
    for name in names:
        pairs: List[Tuple[object, object]] = []
        for x, wx in enumerate(weights):
            for y, wy in enumerate(weights):
                pairs += [(x, y)] * int(rows * wx * wy + 0.5)
        for _ in range(max(rows // 20, 1)):
            x, y = rng.choices(range(domain), weights=weights, k=2)
            pairs.append((NULL if rng.random() < 0.1 else x, y))
        rng.shuffle(pairs)
        storage.create_table(
            name, [f"{name}.a", f"{name}.b"], [{f"{name}.a": x, f"{name}.b": y} for x, y in pairs]
        )


def _key_rows(
    rng: random.Random,
    name: str,
    keys: Dict[str, Tuple[int, int]],
    rows: int,
    start: int = 0,
    null_fraction: float = 0.01,
) -> List[Dict[str, object]]:
    """Rows with each key column uniform on its half-open range and a ballast column."""
    data = []
    for i in range(rows):
        row: Dict[str, object] = {
            f"{name}.{col}": NULL if rng.random() < null_fraction else rng.randrange(lo, hi)
            for col, (lo, hi) in keys.items()
        }
        row[f"{name}.p"] = start + i
        data.append(row)
    return data


def _add_needle_chain(storage: Storage, rng: random.Random, rows: int) -> Expression:
    """E1 - E2 - E3 with heavy anti-correlated key windows and a few needles.

    The BENCH_PR7 shape, rebuilt: E2's halves pair an in-window heavy key
    with a far-range key that matches nothing, so either binary order
    fans half of E2 through an endpoint's duplicates before the other end
    kills it; only the needle keys reach the output.
    """
    window = max(rows // 75, 4)
    far, needles = (1_000_000, 1_000_000 + window), (2_000_000, 2_000_010)
    heavy = rows * 4 // 5
    for name, col in (("E1", "k1"), ("E3", "k2")):
        data = _key_rows(rng, name, {col: (0, window)}, heavy)
        data += _key_rows(rng, name, {col: needles}, 30, start=heavy, null_fraction=0.0)
        storage.create_table(name, [f"{name}.{col}", f"{name}.p"], data)
    data = _key_rows(rng, "E2", {"k1": (0, window), "k2": far}, rows // 2)
    data += _key_rows(rng, "E2", {"k1": far, "k2": (0, window)}, rows // 2, start=rows // 2)
    data += _key_rows(rng, "E2", {"k1": needles, "k2": needles}, 10, start=rows, null_fraction=0.0)
    storage.create_table("E2", ["E2.k1", "E2.k2", "E2.p"], data)
    return Join(
        Join(Rel("E1"), Rel("E2"), eq("E1.k1", "E2.k1")), Rel("E3"), eq("E2.k2", "E3.k2")
    )


def _add_needle_star(storage: Storage, rng: random.Random, rows: int) -> Expression:
    """Hub H with leaves L1..L3; each hub third sits in one leaf's heavy window."""
    window = max(rows // 150, 3)
    far, needles = (1_000_000, 1_000_000 + window), (2_000_000, 2_000_005)
    attrs = ("a", "b", "c")
    data: List[Dict[str, object]] = []
    for in_window in attrs:
        ranges = {a: (0, window) if a == in_window else far for a in attrs}
        data += _key_rows(rng, "H", ranges, rows // 3, start=len(data))
    data += _key_rows(rng, "H", {a: needles for a in attrs}, 5, start=len(data), null_fraction=0.0)
    storage.create_table("H", ["H.a", "H.b", "H.c", "H.p"], data)
    query: Optional[Expression] = None
    leaf_heavy = rows * 8 // 15
    for i, attr in enumerate(attrs):
        leaf = f"L{i + 1}"
        leaf_data = _key_rows(rng, leaf, {attr: (0, window)}, leaf_heavy)
        leaf_data += _key_rows(rng, leaf, {attr: needles}, 10, start=leaf_heavy, null_fraction=0.0)
        storage.create_table(leaf, [f"{leaf}.{attr}", f"{leaf}.p"], leaf_data)
        edge = eq(f"H.{attr}", f"{leaf}.{attr}")
        query = Join(Rel("H"), Rel(leaf), edge) if query is None else Join(query, Rel(leaf), edge)
    assert query is not None
    return query


_TRIANGLE = ("T1", "T2", "T3")
_CLIQUE = ("K1", "K2", "K3", "K4")
_ZSQUARE = ("Q1", "Q2", "Q3", "Q4")
_ZTRIANGLE = ("Z1", "Z2", "Z3")


def cyclic_skew_warm(seed: int, sizing: Sizing) -> Workload:
    """Six shapes in Zipf-rank order (0.46, 0.20, 0.12, 0.09, 0.07, 0.05).

    As in the report workload the ranks are arranged so that p50 falls
    inside the rank-1 shape's cost mode and p95 inside rank 3's.
    """
    storage = Storage()
    _add_spike_triangle(storage, stream(seed, "cyclic", "triangle"), _TRIANGLE, *sizing.spike_triangle)
    _add_spike_clique(storage, stream(seed, "cyclic", "clique"), _CLIQUE, *sizing.spike_clique)
    _add_zipf(storage, stream(seed, "cyclic", "zsquare"), _ZSQUARE, sizing.zipf_rows)
    _add_zipf(storage, stream(seed, "cyclic", "ztriangle"), _ZTRIANGLE, sizing.zipf_rows)
    chain = _add_needle_chain(storage, stream(seed, "cyclic", "chain"), sizing.needle_rows)
    star = _add_needle_star(storage, stream(seed, "cyclic", "star"), sizing.needle_rows)
    shapes = [
        Shape("triangle_spike", _triangle_query(_TRIANGLE)),
        Shape("square_zipf", _square_query(_ZSQUARE)),
        Shape("clique4_spike", _clique_query(_CLIQUE)),
        Shape("chain_needle", chain),
        Shape("star_needle", star),
        Shape("triangle_zipf", _triangle_query(_ZTRIANGLE)),
    ]
    return Workload(
        name="cyclic_skew_warm",
        storage=storage,
        shapes=shapes,
        picks=zipf_picks(seed, "cyclic", len(shapes)),
    )


# ---------------------------------------------------------------------------
# mixed_open_writes
# ---------------------------------------------------------------------------

_MIXED_TRIANGLE = ("T1", "T2", "T3")


def _write_schedule(seed: int, sizing: Sizing, seconds: float) -> List[Write]:
    """Insert batches about every WRITE_EVERY_S, rotating over three tables.

    Rows follow each table's own value law (fresh order keys, uniform
    wide-table values, far-range chain keys that match nothing), so the
    tables keep their shape while every batch stales every cached plan.
    """
    rng = stream(seed, "mixed", "writes")
    writes: List[Write] = []
    k = 0
    while True:
        at = WRITE_EVERY_S * (k + 0.5) + rng.uniform(-WRITE_JITTER_S, WRITE_JITTER_S)
        if at >= seconds:
            return writes
        target = ("ORDERS", "W0", "E2")[k % 3]
        rows: List[Row] = []
        for i in range(WRITE_BATCH):
            serial = 10_000_000 + k * WRITE_BATCH + i
            if target == "ORDERS":
                values = {
                    "ORDERS.ok": serial,
                    "ORDERS.ck": rng.randrange(sizing.mixed_customers),
                    "ORDERS.total": rng.randint(10, 500),
                }
            elif target == "W0":
                values = {
                    "W0.a": rng.randrange(sizing.mixed_wide_rows),
                    "W0.b": rng.randrange(sizing.mixed_wide_rows),
                }
            else:
                values = {
                    "E2.k1": 1_000_000 + rng.randrange(4),
                    "E2.k2": 1_000_000 + rng.randrange(4),
                    "E2.p": serial,
                }
            rows.append(Row(values))
        writes.append(Write(at, target, rows))
        k += 1


def arrival_schedule(seed: int, rate_qps: float, seconds: float) -> List[float]:
    """Poisson arrival instants (s from start) at ``rate_qps`` up to ``seconds``."""
    rng = stream(seed, "mixed", "arrivals", repr(rate_qps))
    instants: List[float] = []
    at = rng.expovariate(rate_qps)
    while at < seconds:
        instants.append(at)
        at += rng.expovariate(rate_qps)
    return instants


def _mixed_adhoc_graph() -> QueryGraph:
    """One fixed nice graph over the tiny tables: core C1..C5, forest F1..F3.

    The cold workload draws fresh graphs because its 600-query pool
    averages their planning cost out; here four ad-hoc shapes carry a
    third of the traffic and re-plan after every write, so a graph drawn
    per seed (4-65 ms to plan at the seed commit) decided the whole
    run's tail.  The graph is frozen; the seed still picks the written
    tree, the restriction constants and the data.
    """
    def edge(u: str, v: str) -> Tuple[str, str, Predicate]:
        return (u, v, eq(f"{u}.a", f"{v}.a"))

    return QueryGraph.from_edges(
        join=[edge("C1", "C2"), edge("C2", "C3"), edge("C3", "C4"), edge("C2", "C5")],
        oj=[edge("C1", "F1"), edge("F1", "F2"), edge("C4", "F3")],
    )


def _mixed_adhoc_shapes(seed: int) -> List[Shape]:
    rng = stream(seed, "mixed", "adhoc")
    graph = _mixed_adhoc_graph()

    def written(*restrictions: Predicate) -> Expression:
        query: Expression = sample_tree(graph, rng)
        for predicate in restrictions:
            query = Restrict(query, predicate)
        return query

    return [
        Shape("adhoc_nice", written(_core_restriction(rng, "C3"))),
        Shape("adhoc_two_filters", written(_core_restriction(rng, "C1"), _core_restriction(rng, "C5"))),
        Shape(
            "adhoc_convert",
            written(_core_restriction(rng, "C2"), Comparison("F2.b", ">=", rng.randrange(0, 3))),
            "convert",
        ),
        Shape("adhoc_decline", written(IsNull("F3.b")), "decline"),
    ]


def mixed_open_writes(seed: int, sizing: Sizing) -> Workload:
    """Ten moderate shapes of the three closed workloads on one storage."""
    storage = _report_storage(
        seed, sizing.mixed_customers, sizing.mixed_wide_rows, sizing.mixed_bystander_rows
    )
    _absorb(storage, _tiny_storage(seed))
    _add_spike_triangle(storage, stream(seed, "mixed", "triangle"), _MIXED_TRIANGLE, *sizing.mixed_spike)
    chain = _add_needle_chain(storage, stream(seed, "mixed", "chain"), sizing.mixed_needle_rows)
    by_name = {shape.name: shape for shape in _report_shapes(seed, sizing.mixed_wide_rows)}
    adhoc = _mixed_adhoc_shapes(seed)
    shapes = [
        by_name["sales_written"],
        adhoc[0],
        by_name["snowflake_oj"],
        Shape("triangle_spike", _triangle_query(_MIXED_TRIANGLE)),
        by_name["chain_out"],
        adhoc[1],
        Shape("chain_needle", chain),
        by_name["sales_big_orders"],
        adhoc[2],
        adhoc[3],
    ]
    return Workload(
        name="mixed_open_writes",
        storage=storage,
        shapes=shapes,
        picks=zipf_picks(seed, "mixed", len(shapes)),
        writes=lambda seconds: _write_schedule(seed, sizing, seconds),
        open_loop=True,
    )


BUILDERS: Dict[str, Callable[[int, Sizing], Workload]] = {
    "report_oj_warm": report_oj_warm,
    "adhoc_plan_cold": adhoc_plan_cold,
    "cyclic_skew_warm": cyclic_skew_warm,
    "mixed_open_writes": mixed_open_writes,
}
