"""Persistent benchmark harness: run the bench suite, record a JSON report.

``benchmarks/run_all.py`` (a thin CLI over :func:`main`) executes every
``bench_*.py`` scenario in its own pytest subprocess and writes one report
(default ``BENCH_PR1.json`` at the repo root) containing, per scenario:

* wall-clock of the whole scenario run,
* per-test timings (pytest-benchmark means) when timing is enabled,
* the work counters from :mod:`repro.tools.instrumentation` — tuples
  retrieved from base tables, optimizer plans built, DP subsets filled,
  implementing trees enumerated.

For the headline scenarios (planning scalability, Theorem 1 free
reordering, optimizer comparison) the default mode *also* reruns with
``REPRO_NAIVE_KERNELS=1`` — the pre-optimization operators and
enumerators — and records per-test speedups, so the report doubles as the
before/after evidence for the hash-kernel and bitset fast paths.

Modes:

* default        — all scenarios timed (fast path), naive reruns +
                   comparisons for the headline scenarios;
* ``--naive``    — run everything on the naive path instead (no
                   comparisons); useful for an explicit before snapshot;
* ``--smoke``    — headline scenarios only, single pass, timing disabled:
                   the CI health check;
* ``--seed N``   — forwarded as ``--bench-seed`` to the suite (offsets
                   random-database generation in seed-aware scenarios);
* ``--only S``   — filter scenarios by substring;
* ``--trace-overhead`` — additionally rerun the headline scenarios with
                   ambient tracing on (``REPRO_TRACE`` unset) and off
                   (``REPRO_TRACE=0``) and record per-scenario overhead
                   under a ``trace_overhead`` report key.  The acceptance
                   bar is overhead below 5%; per-test benchmark means are
                   summed (min across repeats) so pytest startup cost
                   cannot mask a real per-query regression.
* ``--batch-bench`` — additionally measure vectorized columnar execution
                   (:mod:`repro.engine.batch`) against the row-at-a-time
                   iterators on the headline 30k-row hash join: row
                   serial vs native batch drain vs batch-through-the-
                   row-adapter.  Cells are interleaved, warmed up,
                   reduced by min-of-N with raw per-round timings kept,
                   and sequence/bag-equality checked untimed.  Written
                   under a ``batch`` report key (the BENCH_PR6
                   artifact's payload).
* ``--yannakakis-bench`` — additionally measure the acyclic fast path
                   (:mod:`repro.engine.yannakakis`) against the binary
                   DP plan on a chain and a star workload built so every
                   binary join order pays a large dangling intermediate
                   while the full reducer shrinks the inputs to the
                   output's support first.  Both cells run the same query
                   end-to-end through the optimizer (cache disabled),
                   with the ``REPRO_YANNAKAKIS`` switch selecting the
                   plan shape; strategies and untimed bag-equality are
                   asserted before timing.  Written under a
                   ``yannakakis`` report key (the BENCH_PR7 artifact's
                   payload).
* ``--backend-bench`` — additionally measure local engine execution
                   against hinted and native execution on every available
                   SQL backend (:mod:`repro.backends`) over the chain,
                   star, and triangle workloads.  The optimizer's binary
                   DP tree is forced onto each backend via the
                   parenthesized hint grammar and raced against the
                   backend's own join order; each cell is bag-equality
                   checked untimed against the local result.  Written
                   under a ``backends`` report key (the BENCH_PR10
                   artifact's payload).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parents[3]
BENCH_DIR = REPO_ROOT / "benchmarks"
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_PR1.json"

#: Scenarios that get a naive-path rerun and a speedup comparison.
HEADLINE = (
    "bench_planning_scalability.py",
    "bench_theorem1_free_reorder.py",
    "bench_optimizer_comparison.py",
)

#: Instrumentation keys copied into each scenario record.
STAT_KEYS = ("tuples_retrieved", "plans_optimized", "dp_subsets", "trees_enumerated")


def discover_scenarios(bench_dir: Path = BENCH_DIR, only: Optional[str] = None) -> List[Path]:
    """All bench_*.py files, sorted; optionally filtered by substring."""
    scenarios = sorted(bench_dir.glob("bench_*.py"))
    if only:
        scenarios = [p for p in scenarios if only in p.name]
    return scenarios


def run_scenario(
    path: Path,
    *,
    naive: bool = False,
    seed: int = 0,
    timings: bool = True,
    trace: Optional[str] = None,
) -> Dict[str, object]:
    """Run one scenario in a pytest subprocess; return its record.

    ``trace`` pins the child's ``REPRO_TRACE``: ``"on"`` removes the
    variable (ambient tracing), ``"off"`` sets ``0``; None inherits.
    """
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["REPRO_NAIVE_KERNELS"] = "1" if naive else ""
    if trace == "on":
        env.pop("REPRO_TRACE", None)
    elif trace == "off":
        env["REPRO_TRACE"] = "0"

    cmd = [sys.executable, "-m", "pytest", str(path), "-q", "-p", "no:cacheprovider"]
    cmd += ["--bench-seed", str(seed)]

    with tempfile.TemporaryDirectory() as tmp:
        stats_file = Path(tmp) / "stats.json"
        env["REPRO_BENCH_STATS_FILE"] = str(stats_file)
        bench_json = Path(tmp) / "bench.json"
        if timings:
            cmd += [f"--benchmark-json={bench_json}"]
        else:
            cmd += ["--benchmark-disable"]

        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=REPO_ROOT, capture_output=True, text=True)
        wall = time.perf_counter() - start

        record: Dict[str, object] = {
            "scenario": path.name,
            "mode": "naive" if naive else "fast",
            "ok": proc.returncode == 0,
            "returncode": proc.returncode,
            "wall_clock_s": round(wall, 4),
        }
        if proc.returncode != 0:
            record["tail"] = proc.stdout.splitlines()[-15:]
        if stats_file.exists():
            stats = json.loads(stats_file.read_text())
            for key in STAT_KEYS:
                record[key] = stats.get(key, 0)
        if timings and bench_json.exists():
            data = json.loads(bench_json.read_text())
            record["timings"] = {
                b["name"]: round(b["stats"]["mean"], 6) for b in data.get("benchmarks", [])
            }
    return record


def compare_records(fast: Dict[str, object], naive: Dict[str, object]) -> Dict[str, object]:
    """Per-test and wall-clock speedups of a fast/naive record pair."""
    tests: Dict[str, Dict[str, float]] = {}
    fast_t = fast.get("timings") or {}
    naive_t = naive.get("timings") or {}
    for name in sorted(set(fast_t) & set(naive_t)):
        f, n = fast_t[name], naive_t[name]
        tests[name] = {
            "fast_s": f,
            "naive_s": n,
            "speedup": round(n / f, 2) if f > 0 else None,
        }
    return {
        "tests": tests,
        "wall_clock": {
            "fast_s": fast["wall_clock_s"],
            "naive_s": naive["wall_clock_s"],
        },
        "tuples_retrieved": {
            "fast": fast.get("tuples_retrieved", 0),
            "naive": naive.get("tuples_retrieved", 0),
        },
    }


def measure_trace_overhead(
    scenarios: Sequence[Path], seed: int = 0, repeats: int = 4
) -> Dict[str, Dict[str, object]]:
    """Ambient-tracing overhead per scenario (and overall).

    Each scenario runs ``repeats`` times with ``REPRO_TRACE`` unset and
    ``repeats`` times with ``REPRO_TRACE=0``; per-test benchmark means
    are reduced by min across repeats (pytest-benchmark calibration is
    noisy on microsecond-scale tests) and summed over the tests both
    modes ran.  Overhead is the percentage the traced sum exceeds the
    untraced sum.
    """
    overhead: Dict[str, Dict[str, object]] = {}
    total_on = total_off = 0.0
    for path in scenarios:
        best: Dict[str, Dict[str, float]] = {"on": {}, "off": {}}
        for mode in ("on", "off"):
            for _ in range(repeats):
                record = run_scenario(path, seed=seed, timings=True, trace=mode)
                if not record["ok"]:
                    raise RuntimeError(f"{path.name} failed during overhead run ({mode})")
                for name, mean in (record.get("timings") or {}).items():
                    prior = best[mode].get(name)
                    best[mode][name] = mean if prior is None else min(prior, mean)
        shared = sorted(set(best["on"]) & set(best["off"]))
        traced_s = round(sum(best["on"][n] for n in shared), 6)
        untraced_s = round(sum(best["off"][n] for n in shared), 6)
        pct = round(100.0 * (traced_s - untraced_s) / untraced_s, 2) if untraced_s > 0 else None
        overhead[path.name] = {
            "traced_s": traced_s,
            "untraced_s": untraced_s,
            "overhead_pct": pct,
        }
        total_on += traced_s
        total_off += untraced_s
    overhead["overall"] = {
        "traced_s": round(total_on, 6),
        "untraced_s": round(total_off, 6),
        "overhead_pct": round(100.0 * (total_on - total_off) / total_off, 2)
        if total_off > 0
        else None,
    }
    return overhead


def _headline_table(rng, name: str, keys, payload: str, rows: int, null_fraction: float = 0.01):
    """Schema and row dicts for one headline bench base table.

    ``keys`` maps each key column to a half-open ``(lo, hi)`` range sampled
    uniformly; ``payload`` names a row-counter ballast column.  A
    ``null_fraction`` sprinkle of null keys keeps the null composite-key
    drop (Yannakakis) and 3VL comparisons on the measured path of every
    consumer.  All bench workloads — two-table equi-join, chain, star —
    are concatenations of these blocks, so their cell/schema plumbing lives in one place.
    """
    from repro.algebra.nulls import NULL

    schema = [f"{name}.{col}" for col in (*keys, payload)]
    data = []
    for i in range(rows):
        row = {}
        for col, (lo, hi) in keys.items():
            value = NULL if rng.random() < null_fraction else rng.randrange(lo, hi)
            row[f"{name}.{col}"] = value
        row[f"{name}.{payload}"] = i
        data.append(row)
    return schema, data


def _batch_workload(seed: int, rows: int, domain: int):
    """The headline two-table equi-join as engine base tables (no indexes).

    Uniform keys over ``domain`` values (~20 matches per key at full
    size), 1% null keys, stored in :class:`~repro.engine.storage.Storage`
    so the measured object is the physical
    :class:`~repro.engine.iterators.HashJoin` pipeline, row path versus batch path.  No index is created: an
    indexed right side would make the planner prefer INLJ, which is not
    the operator under test.
    """
    from repro.engine.iterators import HashJoin, SeqScan
    from repro.engine.storage import Storage
    from repro.util.rng import make_rng

    rng = make_rng(seed)
    storage = Storage()
    for prefix, payload in (("L", "a"), ("R", "b")):
        schema, data = _headline_table(rng, prefix, {"k": (0, domain)}, payload, rows)
        storage.create_table(prefix, schema, data)
    plan = HashJoin(SeqScan(storage["L"]), SeqScan(storage["R"]), "L.k", "R.k")
    return storage, plan


def measure_batch(
    seed: int = 0,
    smoke: bool = False,
    rounds: int = 3,
    warmup_rounds: int = 1,
) -> Dict[str, object]:
    """Row-at-a-time vs vectorized execution of the headline hash join.

    Three cells, interleaved round-robin and reduced by min (after
    ``warmup_rounds`` untimed passes each), raw per-round timings kept:

    * ``row_serial``     — the baseline: ``REPRO_BATCH=0``, rows
      drained through ``execute()``;
    * ``batch_serial``   — the headline: batches drained natively through
      ``execute_batches()``, rows counted but never materialized as
      ``Row`` objects (the columnar result is the batch engine's working
      representation; converting it back to rows is the *consumer's*
      choice, priced separately);
    * ``batch_rows``     — honesty cell: batch execution drained through
      the row-compat adapter, paying full ``Row`` materialization.

    Correctness is verified untimed: the batch row stream must be
    *sequence*-identical to the row path's.
    """
    from repro.engine.metrics import Metrics
    from repro.util.fastpath import batch_mode, batch_size

    rows = 4_000 if smoke else 30_000
    domain = max(rows // 20, 2)
    _storage, plan = _batch_workload(seed, rows, domain)

    def row_serial() -> list:
        with batch_mode(False):
            return list(plan.execute(Metrics()))

    def batch_serial() -> int:
        total = 0
        with batch_mode(True):
            for batch in plan.execute_batches(Metrics()):
                total += batch.num_rows
        return total

    def batch_rows() -> list:
        with batch_mode(True):
            return list(plan.execute(Metrics()))

    # Untimed correctness pass (doubles as warm-up round one).
    baseline = row_serial()
    if batch_rows() != baseline:
        raise RuntimeError("batch row stream is not sequence-identical to the row path")
    if batch_serial() != len(baseline):
        raise RuntimeError("batch row count disagrees with the row path")

    cells = {
        "row_serial": row_serial,
        "batch_serial": batch_serial,
        "batch_rows": batch_rows,
    }
    for _ in range(max(warmup_rounds - 1, 0)):
        for fn in cells.values():
            fn()

    raw: Dict[str, List[float]] = {name: [] for name in cells}
    for _ in range(rounds):
        for name, fn in cells.items():
            start = time.perf_counter()
            fn()
            raw[name].append(round(time.perf_counter() - start, 4))

    best = {name: min(times) for name, times in raw.items()}

    def speedup(cell: str) -> Optional[float]:
        return round(best["row_serial"] / best[cell], 2) if best[cell] > 0 else None

    return {
        "workload": {
            "left_rows": rows,
            "right_rows": rows,
            "output_rows": len(baseline),
            "domain": domain,
            "null_key_fraction": 0.01,
        },
        "rounds": rounds,
        "warmup_rounds": warmup_rounds,
        "batch_size": batch_size(),
        "raw_timings_s": raw,
        "row_serial_s": round(best["row_serial"], 4),
        "batch_serial_s": round(best["batch_serial"], 4),
        "batch_rows_s": round(best["batch_rows"], 4),
        "speedup_batch_serial": speedup("batch_serial"),
        "speedup_batch_rows": speedup("batch_rows"),
        "bag_equal": True,
    }


def _yannakakis_workloads(seed: int, smoke: bool):
    """Acyclic workloads where binary join orders pay, and the reducer wins.

    Both separate the *dangling* keys from the *surviving* keys.  The
    heavy key windows carry massive duplication but are anti-correlated
    across tables, so every binary DP order fans them into a huge
    intermediate that the query's other end then kills entirely; only a
    handful of thinly-planted needle keys (outside the heavy windows)
    reach the output.  The full reducer semijoin-reduces the heavy rows
    away in passes linear in the base tables, before any join runs:

    * ``chain`` (E1 − E2 − E3): E2's halves pair an in-window heavy key
      with a far-range key matching nothing, so either join order
      explodes ~half of E2 through an endpoint's duplicates first;
    * ``star`` (H with leaves L1..L3): each hub third sits in exactly one
      leaf's heavy window, so whichever leaf DP joins first fans a third
      of the hub out through that leaf's duplicates.
    """
    from repro.algebra.predicates import eq
    from repro.core import jn
    from repro.engine.storage import Storage
    from repro.util.rng import make_rng

    rng = make_rng(seed)
    rows = 4_000 if smoke else 30_000
    workloads = []

    # Chain: heavy endpoint window [0, 200) (~100x duplication at full
    # size), E2 far range [1000, 1200), needle keys in [2000, 2010).
    window, far, needles = 200, (1_000, 1_200), (2_000, 2_010)
    heavy = rows * 4 // 5
    storage = Storage()
    for name, col in (("E1", "k1"), ("E3", "k2")):
        schema, data = _headline_table(rng, name, {col: (0, window)}, "p", heavy)
        data += _headline_table(rng, name, {col: needles}, "p", 30, null_fraction=0.0)[1]
        storage.create_table(name, schema, data)
    schema, data = _headline_table(rng, "E2", {"k1": (0, window), "k2": far}, "p", rows // 2)
    data += _headline_table(rng, "E2", {"k1": far, "k2": (0, window)}, "p", rows // 2)[1]
    data += _headline_table(rng, "E2", {"k1": needles, "k2": needles}, "p", 10, null_fraction=0.0)[1]
    storage.create_table("E2", schema, data)
    workloads.append(
        {
            "topology": "chain",
            "storage": storage,
            "query": jn(
                jn("E1", "E2", eq("E1.k1", "E2.k1")), "E3", eq("E2.k2", "E3.k2")
            ),
            "tables": {"E1": heavy + 30, "E2": rows + 10, "E3": heavy + 30},
        }
    )

    # Star: heavy leaf window [0, 100) (~160x duplication at full size),
    # hub far range [1000, 1100) — as narrow as the window, keeping the
    # hub's per-attribute distinct count low enough for the estimated
    # hub-leaf join to clear the cost gate's base-scan bill.
    window, far, needles = 100, (1_000, 1_100), (2_000, 2_005)
    leaf_heavy = rows * 8 // 15
    core = 5
    attrs = ("a", "b", "c")
    storage = Storage()
    schema = None
    data = []
    for in_window in attrs:
        ranges = {a: (0, window) if a == in_window else far for a in attrs}
        schema, part = _headline_table(rng, "H", ranges, "p", rows // 3)
        data += part
    data += _headline_table(
        rng, "H", {a: needles for a in attrs}, "p", core, null_fraction=0.0
    )[1]
    storage.create_table("H", schema, data)
    tables = {"H": len(data)}
    query = jn("H", "L1", eq("H.a", "L1.a"))
    for i, attr in enumerate(attrs):
        leaf = f"L{i + 1}"
        leaf_schema, leaf_data = _headline_table(rng, leaf, {attr: (0, window)}, "p", leaf_heavy)
        leaf_data += _headline_table(rng, leaf, {attr: needles}, "p", 10, null_fraction=0.0)[1]
        storage.create_table(leaf, leaf_schema, leaf_data)
        tables[leaf] = leaf_heavy + 10
        if i:
            query = jn(query, leaf, eq(f"H.{attr}", f"{leaf}.{attr}"))
    workloads.append({"topology": "star", "storage": storage, "query": query, "tables": tables})
    return workloads


def measure_yannakakis(
    seed: int = 0,
    smoke: bool = False,
    rounds: int = 3,
    warmup_rounds: int = 1,
) -> Dict[str, object]:
    """End-to-end DP plan vs the semijoin-reduced Yannakakis plan.

    Each workload runs the *same* query through the full optimizer
    pipeline twice per round — ``REPRO_YANNAKAKIS`` off (binary DP tree)
    and on (GYO join tree through the full reducer) — interleaved and
    reduced by min, caching disabled so both cells pay optimization every
    time.  Before any timing, an untimed pass asserts the strategies
    actually diverge ("dp" vs "yannakakis") and that the two results are
    bag-equal; a fast path that silently fell back would otherwise
    benchmark DP against itself.
    """
    from repro.algebra import bag_equal
    from repro.optimizer.pipeline import optimize_and_run
    from repro.util.fastpath import yannakakis_mode

    results: List[Dict[str, object]] = []
    for workload in _yannakakis_workloads(seed, smoke):
        topology, storage = workload["topology"], workload["storage"]
        query = workload["query"]

        def run(fast: bool):
            with yannakakis_mode(fast):
                result, execution = optimize_and_run(query, storage, use_cache=False)
            return result, execution.relation

        # Untimed strategy + correctness pass (doubles as warm-up one).
        pipeline, reduced = run(True)
        if pipeline.strategy != "yannakakis":
            raise RuntimeError(
                f"{topology}: fast path not taken (strategy={pipeline.strategy!r})"
            )
        pipeline, baseline = run(False)
        if pipeline.strategy != "dp":
            raise RuntimeError(
                f"{topology}: DP cell not on the DP path (strategy={pipeline.strategy!r})"
            )
        if not bag_equal(reduced, baseline):
            raise RuntimeError(f"{topology}: semijoin-reduced result is not bag-equal to DP")

        for _ in range(max(warmup_rounds - 1, 0)):
            run(True)
            run(False)

        raw: Dict[str, List[float]] = {"dp": [], "yannakakis": []}
        for _ in range(rounds):
            for cell, fast in (("dp", False), ("yannakakis", True)):
                start = time.perf_counter()
                run(fast)
                raw[cell].append(round(time.perf_counter() - start, 4))

        dp_s, yann_s = min(raw["dp"]), min(raw["yannakakis"])
        results.append(
            {
                "topology": topology,
                "tables": workload["tables"],
                "output_rows": len(baseline),
                "raw_timings_s": raw,
                "dp_s": round(dp_s, 4),
                "yannakakis_s": round(yann_s, 4),
                "speedup": round(dp_s / yann_s, 2) if yann_s > 0 else None,
                "bag_equal": True,
            }
        )
    return {"rounds": rounds, "warmup_rounds": warmup_rounds, "workloads": results}


def _wcoj_workloads(smoke: bool):
    """Cyclic workloads on the AGM worst-case family, where binary plans lose.

    Both instances plant ``k`` duplicate copies of the star-spike rows
    ``(0, j)`` and ``(j, 0)`` for ``j in 1..m`` in every relation of the
    cycle, plus a handful of diagonal *needle* rows ``(v, v)`` that form
    the only real matches.  The zero-spike makes EVERY binary join order
    pair the ``m*k`` left-spike rows with the ``m*k`` right-spike rows —
    an ``(m*k)^2`` intermediate — before the third relation kills all of
    it; Leapfrog Triejoin intersects one variable at a time, discovers
    the spike never completes a cycle after ``O(m)`` seeks, and emits
    just the needles.  Duplication keeps the per-attribute distinct
    counts low, so the estimated C_out of the best DP plan sits above the
    AGM bound and the cost gate genuinely dispatches to the operator —
    the bench measures the shipped gate, not a forced code path.

    * ``triangle``: R1(x,z) ⋈ R2(x,y) ⋈ R3(y,z), the 3-cycle;
    * ``clique4``: K4 with one edge variable per relation pair — R1 is a
      tiny all-zero anchor (plus needle diagonals) and R2/R3/R4 carry the
      spike triangle on their three pairwise-shared attributes.
    """
    from repro.algebra.predicates import eq
    from repro.core import jn
    from repro.engine.storage import Storage

    m, k = (8, 12) if smoke else (16, 20)
    needles = 5
    spike = []
    for j in range(1, m + 1):
        spike += [(0, j)] * k + [(j, 0)] * k
    diag = [(m + 1 + t, m + 1 + t) for t in range(needles)]

    workloads = []

    storage = Storage()
    for name in ("R1", "R2", "R3"):
        rows = [{f"{name}.a": a, f"{name}.b": b} for a, b in spike + diag]
        storage.create_table(name, [f"{name}.a", f"{name}.b"], rows)
    workloads.append(
        {
            "topology": "triangle",
            "storage": storage,
            "query": jn(
                jn("R1", "R2", eq("R1.a", "R2.a")),
                "R3",
                eq("R2.b", "R3.a") & eq("R3.b", "R1.b"),
            ),
            "tables": {name: 2 * m * k + needles for name in ("R1", "R2", "R3")},
        }
    )

    m, k = (8, 20) if smoke else (12, 24)
    spike = []
    for j in range(1, m + 1):
        spike += [(0, j)] * k + [(j, 0)] * k
    diag = [(m + 1 + t, m + 1 + t) for t in range(needles)]
    storage = Storage()
    for name in ("R2", "R3", "R4"):
        rows = [{f"{name}.a": 0, f"{name}.b": p, f"{name}.c": q} for p, q in spike]
        rows += [{f"{name}.a": v, f"{name}.b": v, f"{name}.c": w} for v, w in diag]
        storage.create_table(name, [f"{name}.a", f"{name}.b", f"{name}.c"], rows)
    anchor = [{"R1.a": 0, "R1.b": 0, "R1.c": 0}]
    anchor += [{"R1.a": v, "R1.b": v, "R1.c": v} for v, _w in diag]
    storage.create_table("R1", ["R1.a", "R1.b", "R1.c"], anchor)
    workloads.append(
        {
            "topology": "clique4",
            "storage": storage,
            "query": jn(
                jn(
                    jn("R1", "R2", eq("R1.a", "R2.a")),
                    "R3",
                    eq("R1.b", "R3.a") & eq("R2.b", "R3.b"),
                ),
                "R4",
                eq("R1.c", "R4.a") & eq("R2.c", "R4.b") & eq("R3.c", "R4.c"),
            ),
            "tables": {
                "R1": len(anchor),
                **{name: 2 * m * k + needles for name in ("R2", "R3", "R4")},
            },
        }
    )
    return workloads


def measure_wcoj(
    smoke: bool = False,
    rounds: int = 3,
    warmup_rounds: int = 1,
) -> Dict[str, object]:
    """End-to-end best DP binary plan vs the Leapfrog Triejoin dispatch.

    Each cyclic workload runs the *same* query through the full optimizer
    pipeline twice per round — ``REPRO_WCOJ`` off (binary DP tree) and on
    (AGM-gated Leapfrog Triejoin) — interleaved and reduced by min, with
    caching disabled so both cells pay optimization every time.  Before
    any timing, an untimed pass asserts the strategies actually diverge
    ("dp" vs "wcoj") and that the two results are bag-equal; a cost gate
    that silently kept the binary plan would otherwise benchmark DP
    against itself.
    """
    from repro.algebra import bag_equal
    from repro.optimizer.pipeline import optimize_and_run
    from repro.util.fastpath import wcoj_mode

    results: List[Dict[str, object]] = []
    for workload in _wcoj_workloads(smoke):
        topology, storage = workload["topology"], workload["storage"]
        query = workload["query"]

        def run(fast: bool):
            with wcoj_mode(fast):
                result, execution = optimize_and_run(query, storage, use_cache=False)
            return result, execution.relation

        # Untimed strategy + correctness pass (doubles as warm-up one).
        pipeline, leapfrog = run(True)
        if pipeline.strategy != "wcoj":
            raise RuntimeError(
                f"{topology}: WCOJ path not taken (strategy={pipeline.strategy!r})"
            )
        pipeline, baseline = run(False)
        if pipeline.strategy != "dp":
            raise RuntimeError(
                f"{topology}: DP cell not on the DP path (strategy={pipeline.strategy!r})"
            )
        if not bag_equal(leapfrog, baseline):
            raise RuntimeError(f"{topology}: Leapfrog Triejoin result is not bag-equal to DP")

        for _ in range(max(warmup_rounds - 1, 0)):
            run(True)
            run(False)

        raw: Dict[str, List[float]] = {"dp": [], "wcoj": []}
        for _ in range(rounds):
            for cell, fast in (("dp", False), ("wcoj", True)):
                start = time.perf_counter()
                run(fast)
                raw[cell].append(round(time.perf_counter() - start, 4))

        dp_s, wcoj_s = min(raw["dp"]), min(raw["wcoj"])
        results.append(
            {
                "topology": topology,
                "tables": workload["tables"],
                "output_rows": len(baseline),
                "raw_timings_s": raw,
                "dp_s": round(dp_s, 4),
                "wcoj_s": round(wcoj_s, 4),
                "speedup": round(dp_s / wcoj_s, 2) if wcoj_s > 0 else None,
                "bag_equal": True,
            }
        )
    return {"rounds": rounds, "warmup_rounds": warmup_rounds, "workloads": results}


def measure_backends(
    seed: int = 0,
    smoke: bool = False,
    rounds: int = 3,
    warmup_rounds: int = 1,
) -> Dict[str, object]:
    """Local engine vs hinted and native execution on the SQL backends.

    Reuses the chain and star workloads from the Yannakakis bench and the
    triangle workload from the WCOJ bench — all three were built so join
    *order* matters.  Per workload the optimizer runs once (fast paths
    off, so ``chosen`` is the binary DP tree every backend can follow)
    and then each cell runs the same query:

    * ``local``            — the DP tree on this library's engine;
    * ``<name>_hinted``    — the DP tree forced onto the backend via the
      parenthesized hint grammar (prepared-statement reuse keyed by the
      plan fingerprint);
    * ``<name>_native``    — the transpiled query handed to the backend's
      own optimizer, free to pick any join order.

    The hinted-vs-native ratio per backend is the join-order delta the
    issue asks for.  Before any timing, an untimed pass asserts every
    cell is bag-equal to the local result; data loads are untimed too
    (``sync`` once per workload), so cells time query execution only.
    """
    from repro.algebra import bag_equal
    from repro.backends.base import available_backends, create_backend
    from repro.engine.executor import execute as engine_execute
    from repro.optimizer.pipeline import optimize_query
    from repro.util.fastpath import wcoj_mode, yannakakis_mode

    workloads = _yannakakis_workloads(seed, smoke)  # chain, star
    workloads.append(_wcoj_workloads(smoke)[0])  # triangle
    names = [n for n in available_backends() if n != "local"]

    results: List[Dict[str, object]] = []
    for workload in workloads:
        topology, storage = workload["topology"], workload["storage"]
        query = workload["query"]
        with yannakakis_mode(False), wcoj_mode(False):
            pipeline = optimize_query(query, storage, use_cache=False)
        chosen, fingerprint = pipeline.chosen, pipeline.fingerprint

        backends = {name: create_backend(name) for name in names}
        cells: Dict[str, object] = {
            "local": lambda: engine_execute(chosen, storage).relation
        }
        for name, backend in backends.items():
            backend.sync(storage)
            cells[f"{name}_hinted"] = (
                lambda b=backend: b.execute(chosen, hint=chosen, fingerprint=fingerprint)
            )
            cells[f"{name}_native"] = lambda b=backend: b.execute(query)

        # Untimed correctness pass (doubles as one warm-up round): every
        # cell must produce the same bag before any number is recorded.
        baseline = cells["local"]()
        for cell, fn in cells.items():
            if cell == "local":
                continue
            if not bag_equal(fn(), baseline):
                raise RuntimeError(f"{topology}: {cell} is not bag-equal to local")
        for _ in range(max(warmup_rounds - 1, 0)):
            for fn in cells.values():
                fn()

        raw: Dict[str, List[float]] = {cell: [] for cell in cells}
        for _ in range(rounds):
            for cell, fn in cells.items():
                start = time.perf_counter()
                fn()
                raw[cell].append(round(time.perf_counter() - start, 4))
        for backend in backends.values():
            backend.close()

        best = {cell: min(times) for cell, times in raw.items()}
        speedup_vs_local = {
            cell: round(best["local"] / s, 2) if s > 0 else None
            for cell, s in best.items()
            if cell != "local"
        }
        hinted_vs_native = {}
        for name in names:
            native, hinted = best[f"{name}_native"], best[f"{name}_hinted"]
            hinted_vs_native[name] = round(native / hinted, 2) if hinted > 0 else None
        results.append(
            {
                "topology": topology,
                "tables": workload["tables"],
                "output_rows": len(baseline),
                "raw_timings_s": raw,
                "cells": {cell: round(s, 4) for cell, s in best.items()},
                "speedup_vs_local": speedup_vs_local,
                "hinted_vs_native": hinted_vs_native,
                "bag_equal": True,
            }
        )
    return {
        "rounds": rounds,
        "warmup_rounds": warmup_rounds,
        "available": ["local"] + names,
        "workloads": results,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="run_all.py", description="Run the benchmark suite and write a JSON report."
    )
    parser.add_argument("--naive", action="store_true", help="run on the naive kernels")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="headline scenarios only, timing disabled (CI health check)",
    )
    parser.add_argument("--seed", type=int, default=0, help="forwarded as --bench-seed")
    parser.add_argument("--only", help="substring filter on scenario file names")
    parser.add_argument(
        "--trace-overhead",
        action="store_true",
        help="also measure ambient-tracing overhead on the headline scenarios",
    )
    parser.add_argument(
        "--batch-bench",
        action="store_true",
        help="also measure vectorized batch execution against the row-at-a-time "
        "path on the headline hash join; default output becomes BENCH_PR6.json",
    )
    parser.add_argument(
        "--yannakakis-bench",
        action="store_true",
        help="also measure the acyclic fast path (GYO join tree + full reducer) "
        "against the binary DP plan on chain and star workloads; default "
        "output becomes BENCH_PR7.json",
    )
    parser.add_argument(
        "--wcoj-bench",
        action="store_true",
        help="also measure the cyclic fast path (AGM-gated Leapfrog Triejoin) "
        "against the best binary DP plan on triangle and 4-clique workloads; "
        "default output becomes BENCH_PR8.json",
    )
    parser.add_argument(
        "--backend-bench",
        action="store_true",
        help="also measure local vs hinted vs native execution on every "
        "available SQL backend (chain, star, triangle workloads); default "
        "output becomes BENCH_PR10.json",
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="report path (default BENCH_PR1.json)"
    )
    args = parser.parse_args(argv)
    if args.output is None:
        if args.backend_bench:
            args.output = REPO_ROOT / "BENCH_PR10.json"
        elif args.wcoj_bench:
            args.output = REPO_ROOT / "BENCH_PR8.json"
        elif args.yannakakis_bench:
            args.output = REPO_ROOT / "BENCH_PR7.json"
        elif args.batch_bench:
            args.output = REPO_ROOT / "BENCH_PR6.json"
        else:
            args.output = DEFAULT_OUTPUT

    if args.smoke:
        scenarios = [BENCH_DIR / name for name in HEADLINE]
        if args.only:
            scenarios = [p for p in scenarios if args.only in p.name]
    else:
        scenarios = discover_scenarios(only=args.only)
    if not scenarios:
        print("no scenarios matched", file=sys.stderr)
        return 2

    timings = not args.smoke
    records: List[Dict[str, object]] = []
    comparisons: Dict[str, object] = {}
    failures = 0
    for path in scenarios:
        record = run_scenario(path, naive=args.naive, seed=args.seed, timings=timings)
        records.append(record)
        status = "ok" if record["ok"] else "FAIL"
        print(f"[{record['mode']}] {path.name:40s} {status}  {record['wall_clock_s']:.2f}s")
        if not record["ok"]:
            failures += 1
            for line in record.get("tail", []):
                print(f"    {line}")
        elif not args.naive and not args.smoke and path.name in HEADLINE:
            naive_record = run_scenario(path, naive=True, seed=args.seed, timings=True)
            records.append(naive_record)
            status = "ok" if naive_record["ok"] else "FAIL"
            print(
                f"[naive] {path.name:40s} {status}  {naive_record['wall_clock_s']:.2f}s"
            )
            if not naive_record["ok"]:
                failures += 1
            else:
                comparisons[path.name] = compare_records(record, naive_record)

    report = {
        "meta": {
            "generated_by": "benchmarks/run_all.py",
            "seed": args.seed,
            "smoke": args.smoke,
            "mode": "naive" if args.naive else "fast",
            "python": sys.version.split()[0],
        },
        "scenarios": records,
        "comparisons": comparisons,
    }
    if args.trace_overhead:
        headline = [BENCH_DIR / name for name in HEADLINE]
        if args.only:
            headline = [p for p in headline if args.only in p.name]
        print("\nmeasuring ambient-tracing overhead on the headline scenarios...")
        overhead = measure_trace_overhead(headline, seed=args.seed)
        report["trace_overhead"] = overhead
        for name, entry in overhead.items():
            print(
                f"  {name:40s} traced {entry['traced_s']:.4f}s / "
                f"untraced {entry['untraced_s']:.4f}s  ({entry['overhead_pct']:+.2f}%)"
            )
    if args.batch_bench:
        print("\nmeasuring vectorized batch execution vs the row-at-a-time path...")
        section = measure_batch(seed=args.seed, smoke=args.smoke)
        report["batch"] = section
        print(f"  row serial:        {section['row_serial_s']:.4f}s")
        print(
            f"  batch serial:      {section['batch_serial_s']:.4f}s "
            f"({section['speedup_batch_serial']}x)"
        )
        print(
            f"  batch + rows:      {section['batch_rows_s']:.4f}s "
            f"({section['speedup_batch_rows']}x)"
        )
    if args.yannakakis_bench:
        print("\nmeasuring the acyclic fast path (full reducer) vs the DP plan...")
        section = measure_yannakakis(seed=args.seed, smoke=args.smoke)
        report["yannakakis"] = section
        for entry in section["workloads"]:
            print(
                f"  {entry['topology']:6s} dp {entry['dp_s']:.4f}s / "
                f"yannakakis {entry['yannakakis_s']:.4f}s  ({entry['speedup']}x, "
                f"{entry['output_rows']} rows out)"
            )
    if args.wcoj_bench:
        print("\nmeasuring the cyclic fast path (Leapfrog Triejoin) vs the DP plan...")
        section = measure_wcoj(smoke=args.smoke)
        report["wcoj"] = section
        for entry in section["workloads"]:
            print(
                f"  {entry['topology']:8s} dp {entry['dp_s']:.4f}s / "
                f"wcoj {entry['wcoj_s']:.4f}s  ({entry['speedup']}x, "
                f"{entry['output_rows']} rows out)"
            )
    if args.backend_bench:
        print("\nmeasuring local vs hinted vs native execution per backend...")
        section = measure_backends(seed=args.seed, smoke=args.smoke)
        report["backends"] = section
        print(f"  backends available: {', '.join(section['available'])}")
        for entry in section["workloads"]:
            cells = ", ".join(
                f"{cell} {secs:.4f}s" for cell, secs in sorted(entry["cells"].items())
            )
            print(f"  {entry['topology']:8s} {cells}")
            for name, ratio in sorted(entry["hinted_vs_native"].items()):
                print(f"           {name}: hinted is {ratio}x native order")
    from repro.tools.benchschema import validate_report

    validate_report(report)
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {args.output}")

    for name, cmp in comparisons.items():
        speedups = [t["speedup"] for t in cmp["tests"].values() if t["speedup"]]
        if speedups:
            print(
                f"  {name}: per-test speedup min {min(speedups):.2f}x / "
                f"max {max(speedups):.2f}x over naive"
            )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
