"""Spans recorded around calls into the program's layers.

:func:`instrument` replaces public functions and methods of ``repro`` with
timing wrappers, in the namespaces where the program looks them up (a
function imported by ``repro.core.pipeline`` is wrapped as
``repro.core.pipeline.<name>``), and restores the originals on exit.  No
program file changes.  Each span records its name, start, end, thread and
parent span; spans stay in memory until :meth:`Tracer.dump`.

Span names are ``<layer>.<operation>``, the layer being the module that
owns the code, so the per-layer metrics of ``BENCHMARK.json`` are sums of
span self times and counters.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional


class Tracer:
    """In-memory span recorder; thread-safe, one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            record = {
                "id": len(self.spans),
                "parent": stack[-1]["id"] if stack else None,
                "name": name,
                "thread": threading.current_thread().name,
                "start": time.perf_counter() - self.origin,
                "end": None,
                "counters": {},
            }
            self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.origin
            stack.pop()

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def _wrap(tracer: Tracer, name: str, fn: Callable[..., Any],
          count: Optional[Callable[..., Dict[str, float]]]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name) as record:
            before = count(None, *args, **kwargs) if count else None
            result = fn(*args, **kwargs)
            if count:
                record["counters"].update(count((before, result), *args, **kwargs))
            return result
    return wrapper


# -- counters ------------------------------------------------------------
# A counter function is called twice: with ``state=None`` before the call
# (its return value is kept as ``before``) and with ``(before, result)``
# after it; the second call's dict lands on the span.

def _labeler_counts(state: Any, labeler: Any, *args: Any, **kwargs: Any) -> Dict[str, float]:
    now = (labeler.sssp_runs, labeler.cache_hits)
    if state is None:
        return now
    before, _ = state
    return {
        "sssp_runs": now[0] - before[0],
        "cache_hits": now[1] - before[1],
        "cache_mb": labeler.snapshot()["cache_entries"] * labeler.graph.n * 8 / 1e6,
    }


def _train_counts(state: Any, hmodel: Any, pairs: Any, phi: Any, schedule: Any,
                  config: Any, *args: Any, **kwargs: Any) -> Dict[str, float]:
    if state is None:
        return {}
    return {"pairs_trained": len(pairs) * config.epochs}


def _after(fn: Callable[[Any], Dict[str, float]]) -> Callable[..., Dict[str, float]]:
    """Counter that only looks at the call's result."""
    def count(state: Any, *args: Any, **kwargs: Any) -> Dict[str, float]:
        return {} if state is None else fn(state[1])
    return count


#: (module, attribute path, span name, counter) for every wrapped callable.
#: A dotted attribute path names a method, wrapped on its class.
TARGETS = [
    ("repro.core.pipeline", "PartitionHierarchy.__init__", "graph.hierarchy.partition", None),
    ("repro.core.pipeline", "select_landmarks", "algorithms.landmarks.select", None),
    ("repro.core.pipeline", "validation_set", "core.sampling.draw", None),
    ("repro.core.pipeline", "random_pair_samples", "core.sampling.draw", None),
    ("repro.core.pipeline", "subgraph_level_samples", "core.sampling.draw", None),
    ("repro.core.pipeline", "landmark_samples", "core.sampling.draw", None),
    ("repro.core.sampling", "GridBuckets.__init__", "core.sampling.draw", None),
    ("repro.core.sampling", "GridBuckets.sample", "core.sampling.draw", None),
    ("repro.core.finetune", "error_based_samples", "core.sampling.draw", None),
    ("repro.core.update", "validation_set", "core.sampling.draw", None),
    ("repro.core.update", "_budgeted_samples", "core.sampling.draw", None),
    ("repro.core.sampling", "DistanceLabeler.label", "core.sampling.label", _labeler_counts),
    ("repro.core.sampling", "DistanceLabeler.row", "core.sampling.label", _labeler_counts),
    ("repro.core.pipeline", "train_hierarchical", "core.training.sgd", _train_counts),
    ("repro.core.finetune", "train_hierarchical", "core.training.sgd", _train_counts),
    ("repro.core.update", "train_hierarchical", "core.training.sgd", _train_counts),
    ("repro.core.pipeline", "active_finetune", "core.finetune.finetune", None),
    ("repro.core.pipeline", "error_report", "core.metrics.validate", None),
    ("repro.core.finetune", "bucketed_errors", "core.metrics.validate", None),
    ("repro.core.update", "error_report", "core.metrics.validate", None),
    ("repro.core.index", "EmbeddingTreeIndex.__init__", "core.index.build", None),
    ("repro.core.index", "EmbeddingTreeIndex.refresh_rows", "core.index.refresh",
     _after(lambda nodes: {"nodes_refreshed": nodes})),
    ("repro.parallel.prefetch", "PrefetchPipeline.get", "parallel.prefetch.wait", None),
    ("repro.core.pipeline", "run_with_recovery", "reliability.checkpoint.recover",
     _after(lambda outcome: {"retries": outcome.attempts - 1})),
    ("repro.core.update", "run_with_recovery", "reliability.checkpoint.recover",
     _after(lambda outcome: {"retries": outcome.attempts - 1})),
    ("repro.serving.engine", "BatchQueryEngine.prepare", "serving.engine.prepare", None),
    ("repro.serving.engine", "BatchQueryEngine.distances", "serving.engine.distances", None),
    ("repro.serving.engine", "BatchQueryEngine.knn", "serving.engine.knn", None),
    ("repro.serving.engine", "BatchQueryEngine.range_query", "serving.engine.range", None),
    ("repro.serving.engine", "BatchQueryEngine.set_version", "serving.engine.set_version",
     _after(lambda counts: {"hot_rows_purged": counts["hot_rows_purged"]})),
    ("repro.live.update", "update_rne", "core.update.train",
     _after(lambda res: {"affected_vertices": res.affected_vertices})),
    ("repro.live.update", "LiveUpdateManager.update", "live.update.update",
     _after(lambda stats: {"published": int(stats.published)})),
]


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Install every wrapper of :data:`TARGETS`; restore on exit."""
    saved = []
    try:
        for module_name, path, span_name, count in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if outer else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, span_name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- summaries -----------------------------------------------------------
def self_times(spans: List[Dict[str, Any]]) -> List[float]:
    """Per-span self time: duration minus the direct children's durations
    (children run on the parent's thread and nest inside it)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - child[s["id"]] for s in spans]


def layer_table(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, self seconds, total seconds and summed counters."""
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s, self_s in zip(spans, own):
        row = table[s["name"]]
        row["count"] += 1
        row["self_s"] += self_s
        row["total_s"] += s["end"] - s["start"]
        for key, value in s["counters"].items():
            if key != "cache_mb":  # a level, not a count: see layer_metrics
                row[key] += value
    return {name: dict(row) for name, row in table.items()}


def summary(spans: List[Dict[str, Any]]) -> str:
    """Human-readable per-layer self-time table."""
    lines = [f"{'span':34s} {'count':>7s} {'self_s':>9s} {'total_s':>9s}  counters"]
    for name, row in sorted(layer_table(spans).items(), key=lambda kv: -kv[1]["self_s"]):
        extra = ", ".join(f"{k}={v:g}" for k, v in row.items()
                          if k not in ("count", "self_s", "total_s"))
        lines.append(f"{name:34s} {int(row['count']):7d} {row['self_s']:9.4f} "
                     f"{row['total_s']:9.4f}  {extra}")
    return "\n".join(lines)


def layer_metrics(spans: List[Dict[str, Any]], build_span: int) -> Dict[str, float]:
    """The per-layer metrics of ``BENCHMARK.json`` from one run's spans.

    ``build_span`` is the id of the benchmark's own span around
    ``build_rne``; its coverage is the share of its duration that direct
    child spans on the same thread account for.
    """
    table = layer_table(spans)

    def get(name: str, key: str) -> float:
        return float(table.get(name, {}).get(key, 0.0))

    hits = get("core.sampling.label", "cache_hits")
    runs = get("core.sampling.label", "sssp_runs")
    cache_mb = max((s["counters"]["cache_mb"] for s in spans
                    if s["name"] == "core.sampling.label"), default=0.0)
    root = spans[build_span]
    covered = sum(s["end"] - s["start"] for s in spans if s["parent"] == build_span)
    publish_ms = []
    for s in spans:
        if s["name"] == "live.update.update":
            train = sum(c["end"] - c["start"] for c in spans
                        if c["parent"] == s["id"] and c["name"] == "core.update.train")
            publish_ms.append((s["end"] - s["start"] - train) * 1e3)
    return {
        "graph.hierarchy.partition_s": get("graph.hierarchy.partition", "self_s"),
        "algorithms.landmarks.select_s": get("algorithms.landmarks.select", "self_s"),
        "core.sampling.draw_s": get("core.sampling.draw", "self_s"),
        "core.sampling.label_s": get("core.sampling.label", "self_s"),
        "core.sampling.sssp_runs": runs,
        "core.sampling.label_cache_hit_ratio": hits / max(1, hits + runs),
        "core.sampling.label_cache_mb": cache_mb,
        "core.training.sgd_s": get("core.training.sgd", "self_s"),
        "core.training.pairs_trained": get("core.training.sgd", "pairs_trained"),
        "core.finetune.finetune_s": get("core.finetune.finetune", "self_s"),
        "core.metrics.validate_s": get("core.metrics.validate", "self_s"),
        "core.index.build_s": get("core.index.build", "self_s"),
        "core.index.refresh_s": get("core.index.refresh", "self_s"),
        "core.index.nodes_refreshed": get("core.index.refresh", "nodes_refreshed"),
        "parallel.prefetch.wait_s": get("parallel.prefetch.wait", "self_s"),
        "reliability.checkpoint.retries": get("reliability.checkpoint.recover", "retries"),
        "serving.engine.prepare_s": get("serving.engine.prepare", "self_s"),
        "serving.engine.distances_s": get("serving.engine.distances", "self_s"),
        "serving.engine.knn_s": get("serving.engine.knn", "self_s"),
        "serving.engine.range_s": get("serving.engine.range", "self_s"),
        "serving.engine.set_version_s": get("serving.engine.set_version", "self_s"),
        "serving.cache.hot_rows_purged": get("serving.engine.set_version", "hot_rows_purged"),
        "core.update.train_s": get("core.update.train", "self_s"),
        "core.update.affected_vertices": get("core.update.train", "affected_vertices"),
        "live.update.publish_ms": statistics.median(publish_ms) if publish_ms else 0.0,
        "live.update.published": get("live.update.update", "published"),
        "trace.build_coverage": covered / (root["end"] - root["start"]),
    }
