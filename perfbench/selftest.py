"""Self-test of the benchmark: the checks reject wrong answers, and every
workload prints a report of the shape ``BENCHMARK.json`` fixes.

Usage (from the repository root; about a minute)::

    python3 perfbench/selftest.py

Exits 0 when everything holds and 1 otherwise, printing each finding.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def check_the_checks() -> None:
    from repro import RNEConfig, build_rne, grid_city
    from repro.live import LiveUpdateManager, perturb_weights
    from repro.serving import BatchQueryEngine

    graph = grid_city(12, 12, seed=5)
    rne = build_rne(graph, RNEConfig(
        hier_samples_per_level=800, vertex_samples=1500, joint_samples=1000,
        finetune_rounds=1, finetune_samples=400, validation_size=200, num_landmarks=8,
    ), seed=5)
    engine = BatchQueryEngine.from_rne(rne)
    manager = LiveUpdateManager(rne, engines=(engine,))
    rng = np.random.default_rng(0)
    n, k = graph.n, 5
    targets = np.sort(rng.choice(n, size=60, replace=False))
    sources = rng.choice(n, size=12, replace=False).astype(np.int64)
    pairs = rng.integers(n, size=(50, 2)).astype(np.int64)
    m, p = rne.model.matrix, rne.model.p
    tau = float(np.median(checks.distance_rows(m, p, sources, targets)))

    knn = engine.knn(sources, targets, k)
    rng_ans = engine.range_query(sources, targets, tau)
    dist = engine.distances(pairs)
    expect(not checks.check_knn(m, p, sources, targets, k, knn), "correct kNN answers pass")
    expect(not checks.check_range(m, p, sources, targets, tau, rng_ans), "correct range answers pass")
    expect(not checks.check_pairs(m, p, pairs, dist), "correct pair distances pass")

    swapped = [a.copy() for a in knn]
    swapped[0][[0, -1]] = swapped[0][[-1, 0]]
    expect(bool(checks.check_knn(m, p, sources, targets, k, swapped)),
           "kNN answer with two ids swapped is rejected")
    rows = checks.distance_rows(m, p, sources[:1], targets)[0]
    farther = targets[np.argsort(rows, kind="stable")[k + 2]]
    replaced = [a.copy() for a in knn]
    replaced[0][-1] = farther
    expect(bool(checks.check_knn(m, p, sources, targets, k, replaced)),
           "kNN answer with one id swapped for a farther target is rejected")
    off = dist.copy()
    off[3] *= 1.01
    expect(bool(checks.check_pairs(m, p, pairs, off)), "pair distance off by 1% is rejected")
    wide = engine.range_query(sources, targets, tau * 1.01)
    expect(bool(checks.check_range(m, p, sources, targets, tau, wide)),
           "range answer with tau off by 1% is rejected")

    new_graph, changed = perturb_weights(graph, factor=3.0, count=8, seed=1)
    exact_pairs = np.column_stack([np.repeat(changed[:, 0], 6),
                                   rng.integers(n, size=changed.shape[0] * 6)]).astype(np.int64)
    truth = checks.true_distances(new_graph, exact_pairs)
    expect(bool(checks.check_exact(exact_pairs, truth * 1.01, truth)),
           "exact distance off by 1% is rejected")

    stats = manager.update(new_graph, changed, hops=2, samples=600, rounds=2, seed=3)
    expect(stats.published, "the self-test update publishes")
    expect(not checks.check_exact(exact_pairs, engine.exact_distances(exact_pairs), truth),
           "exact distances on the updated graph pass")
    moved = np.asarray(sorted(set(changed[:, 0].tolist())), dtype=np.int64)
    new_m = rne.model.matrix
    expect(new_m is not m, "the update publishes a new matrix object")
    stale_knn = [targets[np.lexsort((targets, r))[:k]]
                 for r in checks.distance_rows(m, p, moved, targets)]
    expect(bool(checks.check_knn(new_m, p, moved, targets, k, stale_knn)),
           "kNN answers from the previous version's matrix are rejected")
    stale_dist = checks.embedding_distances(m, p, exact_pairs[:, 0], exact_pairs[:, 1])
    expect(bool(checks.check_pairs(new_m, p, exact_pairs, stale_dist)),
           "pair distances from the previous version's matrix are rejected")
    fresh = engine.knn(moved, targets, k)
    expect(not checks.check_knn(new_m, p, moved, targets, k, fresh),
           "kNN answers served after the update pass")


def check_reports() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            what = f"smoke report of {workload} with --trace {trace}"
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
                capture_output=True, text=True, cwd=ROOT, timeout=600)
            if proc.returncode != 0:
                expect(False, f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: v.get("unit") for name, v in report["metrics"].items()}
            expect(
                set(report) == {"correct", "attempted", "failed", "metrics"}
                and report["correct"] is True
                and isinstance(report["attempted"], int) and report["attempted"] >= 1
                and report["failed"] == 0
                and got == want
                and all(isinstance(v["value"], float) and np.isfinite(v["value"])
                        for v in report["metrics"].values()),
                what,
            )


if __name__ == "__main__":
    check_the_checks()
    check_reports()
    print(f"selftest: {len(problems)} problem(s)")
    sys.exit(1 if problems else 0)
