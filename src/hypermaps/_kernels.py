"""The two hot kernels, one numpy implementation each.

Inputs are coerced to contiguous DTYPE arrays; outputs are DTYPE arrays.

Kernels:
  canonical_code  -- breadth-first relabeling code minimized over all start
                     flags (the certificate behind canonical_form).
  spherical_triples -- scan of involution triples for the transitive,
                     Euler-characteristic-2 survivors (brute-force oracle).
"""

from __future__ import annotations

import numpy as np

DTYPE = np.int32


# ---------------------------------------------------------------------------
# canonical code


def canonical_code(hs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first relabeling from every start flag.

    hs: (3, n) int array of generator images. Returns (code, sigma) where
    code is the lexicographically least concatenation of the relabeled
    generator images over all starts and sigma maps old flags to new labels.
    """
    hs = np.ascontiguousarray(hs, dtype=DTYPE)
    n = hs.shape[1]
    h0, h1, h2 = hs[0], hs[1], hs[2]
    best_code: list[int] | None = None
    best_sigma: np.ndarray | None = None
    for start in range(n):
        lab = np.full(n, -1, dtype=DTYPE)
        order = [start]
        lab[start] = 0
        head = 0
        while head < len(order):
            x = order[head]
            head += 1
            for g in (h0, h1, h2):
                y = int(g[x])
                if lab[y] < 0:
                    lab[y] = len(order)
                    order.append(y)
        code = np.empty(3 * n, dtype=DTYPE)
        for gi, g in enumerate((h0, h1, h2)):
            block = np.empty(n, dtype=DTYPE)
            block[lab] = lab[g]
            code[gi * n : (gi + 1) * n] = block
        code_list = code.tolist()
        if best_code is None or code_list < best_code:
            best_code = code_list
            best_sigma = lab
    assert best_code is not None and best_sigma is not None
    return np.asarray(best_code, dtype=DTYPE), best_sigma


# ---------------------------------------------------------------------------
# oracle triple scan
#
# Input: the (m, n) matrix of all fixed-point-free involutions on n points.
# Output: all ordered index triples (i, j, k) whose involutions act
# transitively with V + E + F - n/2 == 2, where V, E, F count the orbits of
# the generator pairs (j,k), (i,k), (i,j).


def _pair_orbit_data(invs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Component labels and counts for every ordered pair of involutions.

    labels[a, b] assigns each point its <invs[a], invs[b]>-orbit id;
    counts[a, b] is the number of orbits. Symmetric in (a, b).
    """
    m, n = invs.shape
    labels = np.empty((m, m, n), dtype=DTYPE)
    counts = np.empty((m, m), dtype=DTYPE)
    for a in range(m):
        pa = invs[a]
        for b in range(a, m):
            pb = invs[b]
            lab = np.full(n, -1, dtype=DTYPE)
            cnt = 0
            for s in range(n):
                if lab[s] >= 0:
                    continue
                stack = [s]
                lab[s] = cnt
                while stack:
                    x = stack.pop()
                    for g in (pa, pb):
                        y = int(g[x])
                        if lab[y] < 0:
                            lab[y] = cnt
                            stack.append(y)
                cnt += 1
            labels[a, b] = lab
            labels[b, a] = lab
            counts[a, b] = cnt
            counts[b, a] = cnt
    return labels, counts


def spherical_triples(invs: np.ndarray) -> np.ndarray:
    """Ordered triples (i, j, k) of rows of invs forming a spherical hypermap."""
    invs = np.ascontiguousarray(invs, dtype=DTYPE)
    m, n = invs.shape
    labels, counts = _pair_orbit_data(invs)
    target = n // 2 + 2
    out: list[tuple[int, int, int]] = []
    for i in range(m):
        row_i = counts[i]
        for j in range(m):
            # V + E + F with V from (j,k), E from (i,k), F from (i,j)
            sums = counts[j] + row_i + counts[i, j]
            hits = np.nonzero(sums == target)[0]
            for k in hits:
                lab = labels[i, j]
                comp = lab.copy()
                # union the (i,j)-components along involution k
                parent = list(range(int(counts[i, j])))

                def find(c: int) -> int:
                    while parent[c] != c:
                        parent[c] = parent[parent[c]]
                        c = parent[c]
                    return c

                pk = invs[k]
                merged = int(counts[i, j])
                for x in range(n):
                    a = find(int(comp[x]))
                    b = find(int(comp[int(pk[x])]))
                    if a != b:
                        parent[max(a, b)] = min(a, b)
                        merged -= 1
                if merged == 1:
                    out.append((i, j, int(k)))
    return np.asarray(out, dtype=DTYPE).reshape(-1, 3)
