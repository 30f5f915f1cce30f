"""Run one benchmark workload and print its report.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve --seed 3 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
traced run also writes its spans to ``perfbench/traces/`` as JSON lines.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# One thread per library: the client and the program's prefetch thread
# are the only two threads, matching a 2-core host.  Set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ["REPRO_WORKERS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: name -> unit of every end-to-end metric (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "mean_rel_error": "ratio",
    "peak_rss_mb": "MB",
    "knn_qps": "1/s",
    "range_qps": "1/s",
    "knn_p50_ms": "ms",
    "update_s": "s",
}

#: name -> unit of every per-layer metric (``--trace 1``).
PER_LAYER = {
    "graph.hierarchy.partition_s": "s",
    "algorithms.landmarks.select_s": "s",
    "core.sampling.draw_s": "s",
    "core.sampling.label_s": "s",
    "core.sampling.sssp_runs": "count",
    "core.sampling.label_cache_hit_ratio": "ratio",
    "core.sampling.label_cache_mb": "MB",
    "core.training.sgd_s": "s",
    "core.training.pairs_trained": "count",
    "core.finetune.finetune_s": "s",
    "core.metrics.validate_s": "s",
    "core.index.build_s": "s",
    "core.index.mb": "MB",
    "core.index.refresh_s": "s",
    "core.index.nodes_refreshed": "count",
    "parallel.prefetch.wait_s": "s",
    "reliability.checkpoint.retries": "count",
    "serving.engine.prepare_s": "s",
    "serving.engine.distances_s": "s",
    "serving.engine.knn_s": "s",
    "serving.engine.range_s": "s",
    "serving.engine.pair_qps": "1/s",
    "serving.engine.set_version_s": "s",
    "serving.cache.hot_row_hit_ratio": "ratio",
    "serving.cache.hot_row_evictions": "count",
    "serving.cache.hot_rows_purged": "count",
    "core.update.train_s": "s",
    "core.update.affected_vertices": "count",
    "live.update.publish_ms": "ms",
    "live.update.published": "count",
    "trace.build_coverage": "ratio",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes that only exercise the code paths")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program source at {os.path.join(ROOT, 'src', 'repro')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import numpy as np
    import scipy

    import tracing
    import workload

    if args.workload not in workload.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workload.WORKLOADS}",
              file=sys.stderr)
        return 2
    scale = workload.SMOKE if args.smoke else workload.FULL
    tracer = tracing.Tracer() if args.trace else None
    run = workload.Run(args.workload, args.seed, args.seconds, scale, tracer)
    if tracer is not None:
        with tracing.instrument(tracer):
            run.execute()
    else:
        run.execute()

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}{'  smoke' if args.smoke else ''}")
    print(f"host cpu_count {os.cpu_count()}  affinity {len(os.sched_getaffinity(0))}  "
          f"python {sys.version.split()[0]}  numpy {np.__version__}  scipy {scipy.__version__}")
    for kind, n in run.ops.attempted.items():
        print(f"ops {kind:10s} attempted {n:6d}  failed {run.ops.failed.get(kind, 0)}")
    print("counts " + "  ".join(f"{k} {v}" for k, v in sorted(run.counts.items())))
    for err in run.errors[:20]:
        print(f"CHECK FAILED {err}")
    print(f"checks {'passed' if not run.errors else f'{len(run.errors)} failed'}")

    if tracer is not None:
        os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
        path = os.path.join(HERE, "traces", f"{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(path)
        print(tracing.summary(tracer.spans))
        print(f"spans {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    # A traced run prints its end-to-end figures too, so that the tracing
    # overhead can be read off against untraced runs.
    values, units = run.end_to_end(), END_TO_END
    for name, value in values.items():
        print(f"metric {name:38s} {value:.6g} {units[name]}")
    if tracer is not None:
        values, units = run.per_layer(), PER_LAYER
        for name, value in values.items():
            print(f"metric {name:38s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not run.errors,
        "attempted": sum(run.ops.attempted.values()),
        "failed": sum(run.ops.failed.values()),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
