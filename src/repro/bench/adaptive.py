"""Benchmark of the online adaptive load balancer (DESIGN.md §11).

The question this answers is the one the offline §5.5 discovery cannot:
when the hot set *drifts*, does the feedback loop in
:mod:`repro.core.adaptive` track each phase's offline optimum, and does
it beat the static seed split it started from?

:func:`run_adaptive` builds an implicit hybrid tree on machine M1 with
4K buckets — the regime where Equation 4's two sides actually contest
each other (M2's weak GPU loses every level to the CPU, and tiny
buckets never amortize kernel init + PCIe, so both collapse to
cpu-only at every phase) — synthesizes a phased drifting lookup stream
with
:func:`~repro.workloads.trace.synthesize_drift_lookups`, and runs the
same stream through three :class:`~repro.core.batching.BatchingEngine`
configurations over the same tree:

* **unbalanced** — no balancer at all: the bit-identity reference;
* **static** — :class:`~repro.core.adaptive.StaticSplit` pinned to the
  seed split (offline ``discover()`` on a stored-key sample, i.e. what
  a deploy-time calibration would ship);
* **adaptive** — a live :class:`~repro.core.adaptive.AdaptiveController`
  with an attached :class:`~repro.obs.Observability` bundle recording
  the ``rebalance`` timeline.

Per phase it computes the *offline optimum*: a fresh profile +
``discover()`` on that phase's own queries — ground truth the adaptive
loop never sees.  The report carries three gates, which
:func:`gate_failures` checks and ``python -m repro.bench.gates adaptive``
runs (→ ``BENCH_pr5.json``):

* ``converged`` — in every phase, the split in force at phase end is
  within one step of the phase's offline optimum (depth within 1,
  ratio within 0.125 — one Algorithm-1 binary-search step);
* ``beats_static`` — summed over phases, the adaptive split's modeled
  bucket cost (Equation 4 on the phase's own profile) is below the
  static seed split's;
* ``bit_identical`` — both balanced runs return exactly the
  unbalanced engine's results.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.core.adaptive import AdaptiveConfig, AdaptiveController, StaticSplit
from repro.core.batching import BatchingEngine
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.core.load_balance import LoadBalancer
from repro.obs import Observability, collect_all
from repro.platform.configs import machine_m1
from repro.workloads.generators import generate_dataset
from repro.workloads.trace import synthesize_drift_lookups

#: convergence tolerance: one Algorithm-1 step in each dimension
DEPTH_TOLERANCE = 1
RATIO_TOLERANCE = 0.125

#: hot-set fraction per phase — uniform, sharply hot, moderately hot
PHASE_WORKING_SETS = (1.0, 0.02, 0.25)


def _phase_sample(queries: np.ndarray, size: int = 2048) -> np.ndarray:
    """Deterministic profiling sample of one phase's query stream."""
    rng = np.random.default_rng(101)
    if len(queries) <= size:
        return queries.copy()
    return rng.choice(queries, size=size, replace=False)


def run_adaptive(smoke: bool = False) -> Dict[str, Any]:
    """Static vs adaptive under drift; returns the BENCH_pr5 payload."""
    if smoke:
        n_keys, queries_per_phase, bucket = 1 << 15, 1 << 14, 1 << 12
    else:
        n_keys, queries_per_phase, bucket = 1 << 17, 1 << 15, 1 << 12
    machine = machine_m1()
    keys, values = generate_dataset(n_keys, seed=1234)
    tree = ImplicitHBPlusTree(keys, values, machine)
    trace, phases = synthesize_drift_lookups(
        keys, phase_working_sets=PHASE_WORKING_SETS,
        queries_per_phase=queries_per_phase, seed=29,
    )

    # --- ground truth: per-phase offline optimum --------------------------
    oracle = LoadBalancer(tree, bucket_size=bucket, sort_batches=True)
    offline: List[Dict[str, Any]] = []
    for phase in phases:
        oracle.reprofile(_phase_sample(trace.keys[phase.slice]))
        result = oracle.discover()
        offline.append({
            "phase": phase.name,
            "working_set": phase.working_set,
            "depth": result.depth,
            "ratio": result.ratio,
            "cost_ns": result.cost_ns,
        })

    # --- the static seed split: deploy-time calibration -------------------
    seed_balancer = LoadBalancer(tree, bucket_size=bucket, sort_batches=True)
    seed = seed_balancer.discover()

    # --- unbalanced reference ---------------------------------------------
    reference = BatchingEngine(tree, bucket_size=bucket)
    ref_out = reference.lookup_batch(trace.keys)

    # --- static run --------------------------------------------------------
    static_engine = BatchingEngine(
        tree, bucket_size=bucket,
        balancer=StaticSplit(seed.depth, seed.ratio),
    )
    static_out = static_engine.lookup_batch(trace.keys)

    # --- adaptive run, phase by phase so the split timeline is visible ----
    obs = Observability()
    rebalance_events: List[Dict[str, Any]] = []
    obs.hooks.subscribe(
        "rebalance", lambda **p: rebalance_events.append(dict(p))
    )
    # 4K buckets are big enough that two per window gives the 2048-query
    # reservoir its full depth; two confirming windows is one phase
    # quarter, so a move lands well inside the phase that caused it.
    # The hot-set phases here are worth a few percent of modeled cost,
    # so the gate runs with a 2% hysteresis bar instead of the
    # conservative 5% default
    controller = AdaptiveController.for_tree(
        tree, config=AdaptiveConfig(window_buckets=2, confirm_windows=2,
                                    hysteresis_gain=0.02),
        bucket_size=bucket, obs=obs,
    )
    adaptive_engine = BatchingEngine(tree, bucket_size=bucket,
                                     balancer=controller)
    adaptive_parts = []
    phase_rows: List[Dict[str, Any]] = []
    for phase, optimum in zip(phases, offline):
        adaptive_parts.append(
            adaptive_engine.lookup_batch(trace.keys[phase.slice])
        )
        depth, ratio = controller.split()
        # score both splits on this phase's own profile (Equation 4)
        oracle.reprofile(_phase_sample(trace.keys[phase.slice]))
        adaptive_cost = oracle.balanced_cost_ns(depth, ratio)
        static_cost = oracle.balanced_cost_ns(seed.depth, seed.ratio)
        phase_rows.append({
            "phase": phase.name,
            "working_set": phase.working_set,
            "offline_depth": optimum["depth"],
            "offline_ratio": optimum["ratio"],
            "offline_cost_ns": optimum["cost_ns"],
            "adaptive_depth": depth,
            "adaptive_ratio": ratio,
            "adaptive_cost_ns": adaptive_cost,
            "static_cost_ns": static_cost,
            "converged": (
                abs(depth - optimum["depth"]) <= DEPTH_TOLERANCE
                and abs(ratio - optimum["ratio"]) <= RATIO_TOLERANCE
            ),
        })
    adaptive_out = np.concatenate(adaptive_parts)

    adaptive_total = sum(r["adaptive_cost_ns"] for r in phase_rows)
    static_total = sum(r["static_cost_ns"] for r in phase_rows)
    metrics = collect_all(obs.metrics, tree=tree, engine=adaptive_engine,
                          engine_label="adaptive", adaptive=controller)
    return {
        "benchmark": "adaptive",
        "mode": "smoke" if smoke else "full",
        "machine": machine.name,
        "keys": int(n_keys),
        "queries_per_phase": int(queries_per_phase),
        "bucket_size": int(bucket),
        "tree_height": int(tree.height),
        "seed_split": {"depth": seed.depth, "ratio": seed.ratio},
        "phases": phase_rows,
        "offline": offline,
        "adaptive_total_cost_ns": adaptive_total,
        "static_total_cost_ns": static_total,
        "cost_gain": 1.0 - adaptive_total / max(static_total, 1e-9),
        "converged": all(r["converged"] for r in phase_rows),
        "beats_static": adaptive_total < static_total,
        "bit_identical": bool(
            np.array_equal(adaptive_out, ref_out)
            and np.array_equal(static_out, ref_out)
        ),
        "rebalances": [
            {k: e[k] for k in ("depth", "ratio", "gain", "reason", "moved")}
            for e in rebalance_events
        ],
        "controller": controller.stats.snapshot(),
        "metrics_sample": {
            k: v for k, v in sorted(metrics.items())
            if k.startswith(("adaptive.", "live.rebalance"))
        },
    }


def gate_failures(report: Dict[str, Any]) -> List[str]:
    """The regression gate: empty list when the report passes."""
    failures = []
    if not report["bit_identical"]:
        failures.append(
            "balanced engine results diverged from the unbalanced reference"
        )
    for row in report["phases"]:
        if not row["converged"]:
            failures.append(
                f"{row['phase']}: adaptive split "
                f"(D={row['adaptive_depth']}, R={row['adaptive_ratio']}) "
                f"is more than one step from the offline optimum "
                f"(D={row['offline_depth']}, R={row['offline_ratio']})"
            )
    if not report["beats_static"]:
        failures.append(
            f"adaptive modeled cost {report['adaptive_total_cost_ns']:.0f}ns "
            f"did not beat the static seed split "
            f"{report['static_total_cost_ns']:.0f}ns"
        )
    return failures
