"""The benchmark's three workloads, driven through ``repro``'s public API.

Every workload runs the same skeleton on ``grid_city(100, 100)`` with the
default ``RNEConfig``:

1. set-up: graph generation, ``build_rne``, engine construction and the
   preparation of four target sets;
2. a read phase: closed-loop steps of one pair batch, one kNN batch and one
   range batch, sources Zipf-skewed over an origin pool;
3. a live phase: edge reweighting, ``LiveUpdateManager.update``, then a
   burst of steps from uniform, non-repeating sources.

Both workloads time the one ``build_rne`` call of set-up.  The workload
decides which later phase is long and which phase the read metrics come
from: ``serve`` runs the read phase for ``--seconds`` and keeps the live
phase short; ``live`` runs update rounds for ``--seconds`` and reports read
metrics from the post-publish bursts.  Checking runs outside every timed
section.
"""

from __future__ import annotations

import contextlib
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, ContextManager, Dict, List, Optional, Tuple

import numpy as np

from repro import RNEConfig, build_rne, grid_city
from repro.live import LiveUpdateManager, perturb_weights
from repro.serving import BatchQueryEngine

import checks
import tracing

WORKLOADS = ("serve", "live")


@dataclass(frozen=True)
class Scale:
    """Sizes of one run.  :data:`FULL` is the benchmark; :data:`SMOKE`
    only exercises the code paths."""

    grid: int = 100
    #: Seed of the road network, the training run and the held-out pairs.
    #: They stay fixed, like a dataset: ``--seed`` drives the traffic
    #: (target sets, origins, query batches and edge reweighting), so two
    #: seeds time the same build and score the same embedding.
    dataset_seed: int = 0
    config: RNEConfig = field(default_factory=RNEConfig)
    pool: int = 2000
    zipf: float = 1.0
    target_sizes: Tuple[int, ...] = (200, 1000, 1000, 5000)
    pair_batch: int = 4096
    src_batch: int = 64
    k: int = 10
    tau_quantile: float = 0.02
    warmup: int = 10
    side_steps: int = 80
    burst_steps: int = 40
    side_burst_steps: int = 5
    side_updates: int = 3
    min_updates: int = 3
    #: One whole rotation over the target sets in ``check_every`` is
    #: checked in the read phase, one in ``burst_check_every`` in a burst.
    check_every: int = 8
    burst_check_every: int = 2
    setup_repeats: int = 21
    heldout: Tuple[int, int] = (200, 50)
    edges_per_update: int = 40
    edge_factor: float = 3.0
    update_samples: int = 4000
    update_rounds: int = 2
    update_hops: int = 2
    #: Ceiling on the served model's mean relative error.  The paper
    #: reports RNE near 0.6% and its weakest approximate baseline near
    #: 3.7%; this repository's synthetic grids land at 2-4%.  Twice the
    #: worst of these is 8%.
    error_ceiling: float = 0.08


FULL = Scale()
SMOKE = Scale(
    grid=16,
    config=RNEConfig(
        hier_samples_per_level=1500, hier_epochs=2, vertex_samples=3000,
        vertex_epochs=2, num_landmarks=16, joint_epochs=1, joint_samples=2000,
        finetune_rounds=1, finetune_samples=800, validation_size=400,
    ),
    pool=100, target_sizes=(20, 50, 50, 120), pair_batch=256, src_batch=8,
    warmup=2, side_steps=4, burst_steps=4, side_burst_steps=2, side_updates=1, min_updates=2,
    check_every=1, burst_check_every=1, setup_repeats=2, heldout=(10, 20), edges_per_update=5,
    update_samples=400, error_ceiling=0.5,
)


@dataclass
class Ops:
    """Operations attempted and failed, per kind."""

    attempted: Dict[str, int] = field(default_factory=dict)
    failed: Dict[str, int] = field(default_factory=dict)

    def run(self, kind: str, fn: Callable[[], Any]) -> Tuple[Any, float]:
        """Call ``fn`` timed; an exception counts as a failed operation."""
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # counted and reported, the run goes on
            self.failed[kind] = self.failed.get(kind, 0) + 1
            print(f"FAILED {kind}: {type(exc).__name__}: {exc}")
            return None, time.perf_counter() - start
        return out, time.perf_counter() - start


@dataclass
class Reads:
    """Latencies and sizes of the read steps a workload reports on, in the
    order the steps ran."""

    pair_s: List[float] = field(default_factory=list)
    pairs: int = 0
    knn_s: List[float] = field(default_factory=list)
    knn_sources: int = 0
    range_s: List[float] = field(default_factory=list)
    range_sources: int = 0

    def metrics(self, rotation: int) -> Dict[str, float]:
        # Steps rotate over ``rotation`` target sets of different sizes, so
        # one batch's latency depends on its set.  A rate is the work of one
        # whole rotation over the median time of a rotation: every set
        # weighs the same, and a host stall of one batch does not move it.
        def rate(times: List[float], work: int) -> float:
            whole = len(times) - len(times) % rotation
            per_rotation = np.asarray(times[:whole]).reshape(-1, rotation).sum(axis=1)
            return work / len(times) * rotation / float(np.median(per_rotation))

        return {
            "pair_qps": rate(self.pair_s, self.pairs),
            "knn_qps": rate(self.knn_s, self.knn_sources),
            "range_qps": rate(self.range_s, self.range_sources),
            "knn_p50_ms": statistics.median(self.knn_s) * 1e3,
        }


class Run:
    """One benchmark run: state shared by the phases of a workload."""

    def __init__(self, workload: str, seed: int, seconds: float, scale: Scale,
                 tracer: Optional[tracing.Tracer]) -> None:
        self.workload = workload
        self.seconds = seconds
        self.scale = scale
        self.tracer = tracer
        self.rng = np.random.default_rng([seed, 0xBE7C])
        self.ops = Ops()
        self.errors: List[str] = []
        self.counts: Dict[str, int] = {"checked_batches": 0, "published": 0, "declined": 0}
        self.reads = Reads()
        self.update_s: List[float] = []
        self.setup_s: List[float] = []

    # -- helpers ---------------------------------------------------------
    def span(self, name: str) -> ContextManager[Optional[Dict[str, Any]]]:
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def zipf_sources(self, size: int) -> np.ndarray:
        return self.origins[self.rng.choice(self.origins.size, size=size, p=self.zipf_p)]

    # -- set-up ----------------------------------------------------------
    def setup(self) -> None:
        sc = self.scale
        start = time.perf_counter()
        self.graph = grid_city(sc.grid, sc.grid, seed=sc.dataset_seed)
        graph_s = time.perf_counter() - start
        n = self.graph.n
        # The benchmark's own inputs and ground truth; not part of setup_s.
        self.heldout = checks.heldout_pairs(
            self.graph, np.random.default_rng([sc.dataset_seed, 0xE7A1]), *sc.heldout)
        truth = checks.true_distances(self.graph, self.heldout)
        keep = np.isfinite(truth) & (truth > 0)
        self.heldout, truth = self.heldout[keep], truth[keep]
        self.tau = float(np.quantile(truth, sc.tau_quantile))
        self.target_sets = [np.sort(self.rng.choice(n, size=min(s, n), replace=False))
                            for s in sc.target_sizes]
        self.origins = self.rng.choice(n, size=min(sc.pool, n), replace=False)
        ranks = np.arange(1, self.origins.size + 1, dtype=np.float64)
        self.zipf_p = ranks**-sc.zipf / np.sum(ranks**-sc.zipf)

        with self.span("bench.build_rne") as record:
            self.build_span = record["id"] if record else None
            rne, self.build_s = self.ops.run(
                "build", lambda: build_rne(self.graph, replace(sc.config, seed=sc.dataset_seed)))
        if rne is None:
            raise RuntimeError("build_rne failed; nothing to serve")
        self.rne = rne

        # Set-up proper, repeated: graph generation, engine, target prep.
        for rep in range(sc.setup_repeats):
            start = time.perf_counter()
            if rep:
                grid_city(sc.grid, sc.grid, seed=sc.dataset_seed)
            engine = BatchQueryEngine.from_rne(rne)
            prepared = [engine.prepare(ts) for ts in self.target_sets]
            self.setup_s.append(time.perf_counter() - start + (0.0 if rep else graph_s))
        self.engine, self.prepared = engine, prepared
        self.manager = LiveUpdateManager(rne, engines=(engine,))

    # -- read steps ------------------------------------------------------
    def checked(self, index: int, every: int) -> bool:
        """Whether step ``index`` falls in a checked rotation: whole
        rotations are checked, so every target set is."""
        return (index // len(self.prepared)) % every == 0

    def step(self, index: int, sources: Tuple[np.ndarray, np.ndarray],
             record: bool) -> Tuple[int, np.ndarray, Any, Any, Any]:
        """One read step on target set ``index % 4``; timed per call."""
        sc, eng = self.scale, self.engine
        j = index % len(self.prepared)
        n = self.graph.n
        pairs = self.rng.integers(n, size=(sc.pair_batch, 2)).astype(np.int64)
        knn_src, range_src = sources
        dist, t_pair = self.ops.run("distances", lambda: eng.distances(pairs))
        knn, t_knn = self.ops.run("knn", lambda: eng.knn(knn_src, self.prepared[j], sc.k))
        rng_ans, t_rng = self.ops.run(
            "range", lambda: eng.range_query(range_src, self.prepared[j], self.tau))
        if record:
            r = self.reads
            r.pair_s.append(t_pair)
            r.pairs += sc.pair_batch
            r.knn_s.append(t_knn)
            r.knn_sources += knn_src.size
            r.range_s.append(t_rng)
            r.range_sources += range_src.size
        return j, pairs, (knn_src, knn), (range_src, rng_ans), dist

    def check_step(self, j: int, pairs: np.ndarray, knn: Tuple[np.ndarray, Any],
                   rng_ans: Tuple[np.ndarray, Any], dist: Any) -> None:
        """Compare one step's answers with brute force over the current matrix."""
        model = self.rne.model
        m, p, ts = model.matrix, model.p, self.target_sets[j]
        if dist is not None:
            self.errors += checks.check_pairs(m, p, pairs, dist)
        if knn[1] is not None:
            self.errors += checks.check_knn(m, p, knn[0], ts, self.scale.k, knn[1])
        if rng_ans[1] is not None:
            self.errors += checks.check_range(m, p, rng_ans[0], ts, self.tau, rng_ans[1])
        self.counts["checked_batches"] += 3

    def read_phase(self, steps: Optional[int], record: bool) -> None:
        """Zipf-skewed closed loop: ``warmup`` untimed steps, then ``steps``
        steps (or steps until ``seconds`` elapse when ``steps`` is None)."""
        sc = self.scale
        to_check = []
        for i in range(sc.warmup):
            self.step(i, (self.zipf_sources(sc.src_batch), self.zipf_sources(sc.src_batch)), False)
        start = time.perf_counter()
        i = 0
        with self.span("bench.read_phase"):
            while (i < steps) if steps is not None else (time.perf_counter() - start < self.seconds):
                out = self.step(i, (self.zipf_sources(sc.src_batch),
                                    self.zipf_sources(sc.src_batch)), record)
                if self.checked(i, sc.check_every):
                    to_check.append(out)
                i += 1
        self.counts["read_steps"] = i
        for out in to_check:
            self.check_step(*out)

    # -- live updates ----------------------------------------------------
    def live_round(self, burst_steps: int, record: bool) -> None:
        """Reweight edges, update, check the publish, then a checked burst."""
        sc, rne = self.scale, self.rne
        new_graph, changed = perturb_weights(
            rne.graph, factor=sc.edge_factor, count=sc.edges_per_update,
            seed=int(self.rng.integers(2**31)))
        before = rne.version
        stats, took = self.ops.run("update", lambda: self.manager.update(
            new_graph, changed, hops=sc.update_hops, samples=sc.update_samples,
            rounds=sc.update_rounds, seed=int(self.rng.integers(2**31))))
        if stats is None:
            return
        self.update_s.append(took)
        want = before + 1 if stats.published else before
        self.counts["published" if stats.published else "declined"] += 1
        if rne.version != want or self.engine.version != rne.version:
            self.errors.append(f"update: versions rne {rne.version} engine "
                               f"{self.engine.version}, want {want}")
        check_start = time.perf_counter()
        exact_pairs = np.column_stack([
            np.repeat(changed[:4, 0], 16),
            self.rng.integers(self.graph.n, size=4 * 16)]).astype(np.int64)
        self.errors += checks.check_exact(
            exact_pairs, self.engine.exact_distances(exact_pairs),
            checks.true_distances(new_graph, exact_pairs))
        self.check_s += time.perf_counter() - check_start

        sources = self.rng.choice(self.graph.n, size=2 * burst_steps * sc.src_batch,
                                  replace=False).reshape(burst_steps, 2, sc.src_batch)
        outs = [self.step(i, (sources[i, 0], sources[i, 1]), record)
                for i in range(burst_steps)]
        check_start = time.perf_counter()
        for i, out in enumerate(outs):
            if self.checked(i, sc.burst_check_every):
                self.check_step(*out)
        self.check_s += time.perf_counter() - check_start

    def live_phase(self, rounds: Optional[int], burst_steps: int, record: bool) -> None:
        """``rounds`` update rounds, or rounds until ``seconds`` elapse (at
        least ``min_updates``, checking time excluded) when ``rounds`` is
        None."""
        start = time.perf_counter()
        self.check_s = 0.0
        done = 0
        with self.span("bench.live_phase"):
            while True:
                if rounds is not None and done >= rounds:
                    break
                if rounds is None and done >= self.scale.min_updates and (
                        time.perf_counter() - start - self.check_s >= self.seconds):
                    break
                self.live_round(burst_steps, record)
                done += 1

    # -- the workloads ---------------------------------------------------
    def execute(self) -> None:
        sc = self.scale
        self.setup()
        if self.workload == "serve":
            self.read_phase(None, record=True)
            self.live_phase(sc.side_updates, sc.side_burst_steps, record=False)
        elif self.workload == "live":
            self.read_phase(sc.side_steps, record=False)
            self.live_phase(None, sc.burst_steps, record=True)
        else:
            raise ValueError(f"unknown workload {self.workload!r}")
        final = self.rne.model
        truth = checks.true_distances(self.rne.graph, self.heldout)
        pred = checks.embedding_distances(final.matrix, final.p,
                                          self.heldout[:, 0], self.heldout[:, 1])
        self.mean_rel_error = checks.mean_rel_error(pred, truth)
        if not self.mean_rel_error <= sc.error_ceiling:
            self.errors.append(f"mean_rel_error {self.mean_rel_error:.4f} "
                               f"above the ceiling {sc.error_ceiling}")

    def end_to_end(self) -> Dict[str, float]:
        reads = self.reads.metrics(len(self.prepared))
        return {
            "setup_s": statistics.median(self.setup_s),
            "build_s": self.build_s,
            "mean_rel_error": self.mean_rel_error,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **{name: reads[name] for name in ("knn_qps", "range_qps", "knn_p50_ms")},
            "update_s": statistics.median(self.update_s),
        }

    def per_layer(self) -> Dict[str, float]:
        out = tracing.layer_metrics(self.tracer.spans, self.build_span)
        cache = self.engine.hot_rows.snapshot()
        out["serving.cache.hot_row_hit_ratio"] = cache["hits"] / max(
            1, cache["hits"] + cache["misses"])
        out["serving.cache.hot_row_evictions"] = float(cache["evictions"])
        out["core.index.mb"] = self.rne.index_bytes() / 1e6
        # Too unsteady between runs on a shared host to carry a bound, so it
        # is reported here rather than end to end (see README).
        out["serving.engine.pair_qps"] = self.reads.metrics(len(self.prepared))["pair_qps"]
        return out
