"""Ground truth and answer checks that do not go through the program.

True network distances come from ``scipy.sparse.csgraph.dijkstra`` on a
matrix assembled here from ``Graph.edge_array()``; embedding answers are
compared with a brute-force numpy scan of the served matrix.  Nothing in
this module calls ``DistanceLabeler``, ``repro.algorithms`` or the serving
engine, so a fault in those layers cannot hide itself.

Every check returns a list of error strings (empty when the answer is
right).  The checks avoid bit-identity on float ties: distances are
compared within a relative tolerance, and ids whose distance sits within
that tolerance of a cut-off may fall on either side of it.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

#: Relative tolerance on kNN cut-offs and range boundaries.
CUT_TOL = 1e-9
#: Relative tolerance on pair distances (same arithmetic, any sum order).
PAIR_TOL = 1e-12
#: Element budget of one brute-force distance block.
_BLOCK_ELEMS = 2_000_000


def road_matrix(graph) -> csr_matrix:
    """Symmetric CSR weight matrix of ``graph``; parallel edges keep the
    lightest weight and self-loops are dropped."""
    u, v, w = graph.edge_array()
    n = int(graph.n)
    keep = u != v
    u, v, w = u[keep], v[keep], w[keep]
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    weights = np.concatenate([w, w]).astype(np.float64)
    key = rows * n + cols
    order = np.lexsort((weights, key))
    first = np.ones(order.size, dtype=bool)
    first[1:] = key[order][1:] != key[order][:-1]
    pick = order[first]
    return csr_matrix((weights[pick], (rows[pick], cols[pick])), shape=(n, n))


def true_distances(graph, pairs: np.ndarray) -> np.ndarray:
    """Exact network distance of every ``(s, t)`` pair (one Dijkstra per
    distinct source, run by scipy)."""
    pairs = np.asarray(pairs, dtype=np.int64)
    sources, inverse = np.unique(pairs[:, 0], return_inverse=True)
    rows = dijkstra(road_matrix(graph), directed=False, indices=sources)
    return rows[inverse, pairs[:, 1]]


def heldout_pairs(graph, rng: np.random.Generator, sources: int, per_source: int) -> np.ndarray:
    """``sources * per_source`` held-out pairs with a distinct-source pool,
    drawn from the benchmark's own stream (never the program's)."""
    n = int(graph.n)
    src = rng.choice(n, size=min(sources, n), replace=False)
    s = np.repeat(src, per_source)
    t = rng.integers(n, size=s.size)
    keep = s != t
    return np.column_stack([s[keep], t[keep]]).astype(np.int64)


def embedding_distances(matrix: np.ndarray, p: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lp distance between rows ``a`` and ``b`` of ``matrix`` (elementwise)."""
    diff = np.abs(matrix[a] - matrix[b])
    if p == 1.0:
        return diff.sum(axis=-1)
    return (diff**p).sum(axis=-1) ** (1.0 / p)


def distance_rows(matrix: np.ndarray, p: float, sources: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``(len(sources), len(ids))`` brute-force embedding distances."""
    out = np.empty((sources.size, ids.size), dtype=np.float64)
    step = max(1, _BLOCK_ELEMS // max(1, ids.size * matrix.shape[1]))
    targets = matrix[ids][None, :, :]
    for start in range(0, sources.size, step):
        block = np.abs(matrix[sources[start : start + step]][:, None, :] - targets)
        if p == 1.0:
            out[start : start + step] = block.sum(axis=-1)
        else:
            out[start : start + step] = (block**p).sum(axis=-1) ** (1.0 / p)
    return out


def mean_rel_error(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean of ``|pred - truth| / truth`` over pairs with a positive,
    finite true distance."""
    ok = np.isfinite(truth) & (truth > 0)
    return float(np.mean(np.abs(pred[ok] - truth[ok]) / truth[ok]))


def check_pairs(matrix: np.ndarray, p: float, pairs: np.ndarray, got: np.ndarray) -> List[str]:
    """Served pair distances equal numpy Lp within :data:`PAIR_TOL`."""
    want = embedding_distances(matrix, p, pairs[:, 0], pairs[:, 1])
    got = np.asarray(got, dtype=np.float64)
    if got.shape != want.shape:
        return [f"pairs: shape {got.shape} != {want.shape}"]
    bad = np.abs(got - want) > PAIR_TOL * np.maximum(np.abs(want), 1e-300)
    if bad.any():
        i = int(np.argmax(bad))
        return [f"pairs: {int(bad.sum())} of {bad.size} off, e.g. {pairs[i].tolist()} "
                f"served {got[i]!r} numpy {want[i]!r}"]
    return []


def check_knn(
    matrix: np.ndarray,
    p: float,
    sources: np.ndarray,
    targets: np.ndarray,
    k: int,
    answers: Sequence[np.ndarray],
) -> List[str]:
    """kNN answers against a brute-force scan of ``matrix``.

    Each answer has ``min(k, #targets)`` distinct ids from the target set
    in ascending distance; its last distance equals the brute-force k-th
    smallest within :data:`CUT_TOL`, and every target strictly closer than
    that is present.
    """
    ids = np.unique(np.asarray(targets, dtype=np.int64))
    if len(answers) != sources.size:
        return [f"knn: {len(answers)} answers for {sources.size} sources"]
    kk = min(k, ids.size)
    rows = distance_rows(matrix, p, sources, ids)
    kth = np.partition(rows, kk - 1, axis=1)[:, kk - 1]
    errors: List[str] = []
    for i, ans in enumerate(answers):
        ans = np.asarray(ans, dtype=np.int64)
        where = f"knn source {int(sources[i])}"
        if ans.size != kk:
            errors.append(f"{where}: {ans.size} ids, want {kk}")
            continue
        pos = np.searchsorted(ids, ans)
        pos[pos == ids.size] = 0
        if not np.all(ids[pos] == ans) or np.unique(ans).size != ans.size:
            errors.append(f"{where}: ids outside the target set or repeated")
            continue
        d = rows[i, pos]
        if np.any(np.diff(d) < -CUT_TOL * max(float(d[-1]), 1e-300)):
            errors.append(f"{where}: not in ascending distance")
        if abs(d[-1] - kth[i]) > CUT_TOL * max(float(kth[i]), 1e-300):
            errors.append(f"{where}: k-th distance {d[-1]!r} != brute {kth[i]!r}")
        closer = ids[rows[i] < kth[i] * (1.0 - CUT_TOL)]
        if not np.all(np.isin(closer, ans)):
            errors.append(f"{where}: misses a strictly closer target")
    return errors


def check_range(
    matrix: np.ndarray,
    p: float,
    sources: np.ndarray,
    targets: np.ndarray,
    tau: float,
    answers: Sequence[np.ndarray],
) -> List[str]:
    """Range answers equal the brute-force set (ascending ids), except
    for ids within :data:`CUT_TOL` of ``tau``."""
    ids = np.unique(np.asarray(targets, dtype=np.int64))
    if len(answers) != sources.size:
        return [f"range: {len(answers)} answers for {sources.size} sources"]
    rows = distance_rows(matrix, p, sources, ids)
    slack = CUT_TOL * max(tau, 1e-300)
    errors: List[str] = []
    for i, ans in enumerate(answers):
        ans = np.asarray(ans, dtype=np.int64)
        where = f"range source {int(sources[i])}"
        if ans.size and np.any(np.diff(ans) <= 0):
            errors.append(f"{where}: ids not strictly ascending")
            continue
        want = ids[rows[i] <= tau]
        edge = ids[np.abs(rows[i] - tau) <= slack]
        odd = np.setxor1d(ans, want)
        if not np.all(np.isin(odd, edge)):
            errors.append(f"{where}: {odd.size} ids differ from brute force")
    return errors


def check_exact(pairs: np.ndarray, got: np.ndarray, truth: np.ndarray) -> List[str]:
    """Exact distances served by the program equal scipy's."""
    got = np.asarray(got, dtype=np.float64)
    bad = np.abs(got - truth) > PAIR_TOL * np.maximum(np.abs(truth), 1e-300)
    if bad.any():
        i = int(np.argmax(bad))
        return [f"exact: {int(bad.sum())} of {bad.size} off, e.g. {pairs[i].tolist()} "
                f"served {got[i]!r} scipy {truth[i]!r}"]
    return []
