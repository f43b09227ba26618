"""Brute-force reference for exact per-layer cosine top-k.

Independent of ``vecstore``: every row is scored in float64 and candidates
are ranked by descending similarity with ties broken by ascending store
index, the total order the store promises. Used to check a seeded sample
of the benchmark's query results, including queries whose row has exact
duplicates in the store, so tie-breaking is exercised.
"""

from __future__ import annotations

import numpy as np

SIM_ATOL = 1e-12


def oracle_topk(layer_vectors: list[np.ndarray], query: np.ndarray, k: int, exclude: int):
    """Per layer, the top-k (index, similarity) pairs, excluding one row."""
    query = np.asarray(query, dtype=np.float64)
    out = []
    for layer, vectors in enumerate(layer_vectors):
        rows = np.asarray(vectors, dtype=np.float64)
        norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
        q = query[layer]
        q_norm = np.sqrt(q @ q)
        index = np.arange(rows.shape[0])
        valid = (norms > 0.0) & (index != exclude)
        sims = np.zeros(rows.shape[0])
        if q_norm > 0.0:
            sims[valid] = (rows[valid] @ q) / (norms[valid] * q_norm)
        cand = index[valid]
        order = np.lexsort((cand, -sims[cand]))[:k]
        out.append([(int(cand[i]), float(sims[cand[i]])) for i in order])
    return out


def hit_lists(result, index_of: dict[str, int]):
    """A QueryResult as per-layer (store index, similarity) lists."""
    return [[(index_of[h.segment_ref], h.similarity) for h in hits] for hits in result.hits]


def same_hits(got, expected) -> bool:
    """True when every layer returns the same indices in the same order."""
    if len(got) != len(expected):
        return False
    for got_layer, exp_layer in zip(got, expected):
        if [i for i, _ in got_layer] != [i for i, _ in exp_layer]:
            return False
        for (_, a), (_, b) in zip(got_layer, exp_layer):
            if abs(a - b) > SIM_ATOL:
                return False
    return True


def corrupt(hits):
    """A deliberately wrong hit list: the first two hits of layer 0 swapped."""
    wrong = [list(layer) for layer in hits]
    wrong[0][0], wrong[0][1] = wrong[0][1], wrong[0][0]
    return wrong
