"""The hot kernels, as array code over whole batches.

Inputs are coerced to contiguous DTYPE arrays; outputs are DTYPE arrays.

  canonical_codes -- least breadth-first relabeling code over all start flags
      (as in plantri, Brinkmann & McKay 2007), the certificate behind
      canonical_form; the searches of all (triple, start) instances advance
      one head at a time, and after each head the starts whose h0 column
      exceeds their triple's least are dropped; ties keep the first start.
      canonical_code is the one-triple form.
  _pair_orbit_labels -- least point of each orbit of two fixed-point-free
      involutions, for many pairs at once: every k-face in the package.
  _orbit_labels -- the same for any generator sets: permutation orbits,
      the oracle's centralizer orbits and the scan's transitivity test.
  spherical_triples -- the transitive, Euler-characteristic-2 involution
      triples (brute-force oracle): orbit labels filter the m**2 triples
      whose h0 is the standard pairing, and a table of conjugates relabels
      them onto every other h0, so all m**3 triples are covered.
"""

from __future__ import annotations

import math

import numpy as np

DTYPE = np.int32

# Entries of the (instances, n) label array of one canonical_codes block:
# whole triples while n * n fits, else blocks of one triple's starts.
_CODE_BLOCK = 1 << 18


def _search(hs: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Breadth-first labelling from the starts (S,) on each of the triples hs
    (G, 3, n). Column k of the code's h0 block, the label of the h0 image of
    the k-th flag reached, is final after head k, so each head drops the
    starts whose column exceeds their triple's least. Returns lab and order, flat
    (G * S, n + 1) arrays with a scratch column, and the live rows, triple
    by triple in start order, with their triples."""
    g_count, s_count, n = hs.shape[0], starts.size, hs.shape[2]
    r_count, gens = g_count * s_count, [hs[:, g].reshape(-1) for g in range(3)]
    rows, tri = np.arange(r_count), np.repeat(np.arange(g_count), s_count)
    row_at = rows * (n + 1)  # lab and order have a scratch column
    gen_at = tri * n  # offsets in each of gens
    first = np.tile(starts, g_count)
    lab = np.full(r_count * (n + 1), -1, dtype=DTYPE)
    lab[row_at + first] = 0
    # Unreached slots hold flags of the start's orbit, so reading past the
    # end of an exhausted search labels nothing new.
    order = np.repeat(first.astype(DTYPE), n + 1)
    count = np.ones(r_count, dtype=DTYPE)
    runs = np.arange(0, r_count, s_count)  # first live row of each triple
    for head in range(n):
        x = gen_at + order[row_at + head]
        for g, gen in enumerate(gens):
            y = gen[x]
            at = row_at + y
            new = lab[at] < 0
            lab[at[new]] = count[new]
            order[row_at + count] = y
            count += new
            if g == 0:
                column = lab[at]
        if rows.size > g_count:  # some triple has two live starts
            keep = column == np.minimum.reduceat(column, runs)[tri]
            if not keep.all():
                rows, tri, row_at, gen_at, count = (a[keep] for a in (rows, tri, row_at, gen_at, count))
                runs = np.flatnonzero(np.diff(tri, prepend=-1))
    # Each triple keeps a live start, and every start of an intransitive
    # triple labels fewer than n flags.
    if count.min() < n:
        raise ValueError("the generators do not act transitively")
    return lab, order, rows, tri


def _least_starts(hs: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codes, sigmas) of the least of the starts (S,) on each of the triples
    hs (G, 3, n): the survivors of _search tie on the h0 block and are
    compared on the h1 and h2 blocks; ties keep the first of the starts."""
    g_count, s_count, n = hs.shape[0], starts.size, hs.shape[2]
    lab, order, rows, tri = _search(hs, starts)

    def columns(r: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Code entries lab[r, g[order[r, k]]] of rows r at columns c = g * n + k."""
        g, k = np.divmod(c, n)
        at = r[:, None] * (n + 1)
        x = order[at + k]
        return lab[at + hs.reshape(-1)[(r // s_count)[:, None] * (3 * n) + g * n + x]]

    # Columns per step: as many base-n digits as fit an int64 key.
    width = max(1, min(3 * n, int(62 / np.log2(max(n, 2))), _CODE_BLOCK // rows.size))
    powers = n ** np.arange(width - 1, -1, -1, dtype=np.int64)
    for c0 in range(n, 3 * n, width):
        if rows.size == g_count:  # one live start per triple
            break
        c = np.arange(c0, min(c0 + width, 3 * n))
        key = columns(rows, c) @ powers[width - c.size :]
        keep = key == np.minimum.reduceat(key, np.flatnonzero(np.diff(tri, prepend=-1)))[tri]
        rows, tri = rows[keep], tri[keep]
    win = rows[np.diff(tri, prepend=-1) != 0]
    return columns(win, np.arange(3 * n)), lab.reshape(-1, n + 1)[win, :n]


def canonical_codes(hs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first relabeling from every start flag, for a batch.

    hs: (B, 3, n) generator images of B transitive triples (else ValueError).
    Returns codes (B, 3n), each the lexicographically least concatenation of
    the relabeled generator images over all starts (the first such start on
    ties), and sigmas (B, n), which map old flags to their new labels.
    """
    hs = np.ascontiguousarray(hs, dtype=DTYPE)
    b_count, _, n = hs.shape
    codes = np.full((b_count, 3 * n), n, dtype=DTYPE)  # above every code
    sigmas = np.empty((b_count, n), dtype=DTYPE)
    step = max(1, _CODE_BLOCK // (n * n))  # triples per block
    span = max(1, _CODE_BLOCK // n)  # starts per block
    for b in range(0, b_count, step):
        block, cur, cur_sigma = hs[b : b + step], codes[b : b + step], sigmas[b : b + step]
        for s in range(0, n, span):
            code, sigma = _least_starts(block, np.arange(s, min(s + span, n)))
            col = (code != cur).argmax(axis=1)[:, None]
            better = np.take_along_axis(code < cur, col, axis=1)[:, 0]
            cur[better], cur_sigma[better] = code[better], sigma[better]
    return codes, sigmas


def canonical_code(hs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(code, sigma) of one (3, n) generator triple; see canonical_codes."""
    return tuple(batch[0] for batch in canonical_codes(np.asarray(hs)[None]))


def _orbit_labels(gens: np.ndarray, lab: np.ndarray) -> np.ndarray:
    """Least point of each orbit of the generator stacks gens (..., g, n),
    from labels lab (..., n) with lab[x] a point of x's orbit, lab[x] <= x.

    Each round takes the least label over each point's images, hooks the
    parent lab[x] onto it (Shiloach and Vishkin 1982), scattering only where
    it beats the parent's own new label and so the grandparent lab[lab[x]],
    then jumps lab = lab[lab], in about log(diameter) rounds. Positions are
    in the flattened lab, so that one take serves every row.
    """
    at = np.arange(0, lab.size, lab.shape[-1]).reshape(lab.shape[:-1] + (1,))
    moves = [(gens[..., i, :] + at).reshape(-1) for i in range(gens.shape[-2])]
    flat = (lab + at).reshape(-1)
    while True:
        least = flat
        for move in moves:
            least = np.minimum(least, flat[move])
        hook = least < least[flat]  # never true while least is flat itself
        if hook.any():
            np.minimum.at(least, flat[hook], least[hook])
        new = least[least]
        if np.array_equal(new, flat):
            return flat.reshape(lab.shape) - at
        flat = new


def _pair_orbit_labels(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least point of each orbit of <x, y>, for stacks x, y (..., n) of one
    shape of fixed-point-free involutions. An orbit is a cycle of xy and its
    image under x, another cycle (x reflecting a cycle, x or y would fix a
    point), so its least point is the least min(p, p x) over p's cycle of
    at most n/2 points: r doublings along xy cover 2**r of them."""
    at = np.arange(0, x.size, x.shape[-1], dtype=DTYPE).reshape(x.shape[:-1] + (1,))
    flat_x = (x + at).ravel()
    step = (y + at).ravel()[flat_x]
    lab = np.minimum(np.arange(x.size, dtype=DTYPE), flat_x)
    for _ in range((x.shape[-1] // 2 - 1).bit_length()):
        lab = np.minimum(lab, lab[step])
        step = step[step]
    return lab.reshape(x.shape) - at


def _row_index(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index in table (m, n) of each row of rows (..., n), both DTYPE arrays,
    keyed by the rows' bytes.

    ValueError if table repeats a row or lacks one of rows.
    """
    as_bytes = np.dtype((np.void, table.shape[1] * table.itemsize))
    index = {key: i for i, key in enumerate(np.ascontiguousarray(table).view(as_bytes).ravel().tolist())}
    if len(index) < table.shape[0]:
        raise ValueError("the table repeats a row")
    keys = np.ascontiguousarray(rows).view(as_bytes)[..., 0]
    try:
        return np.array([index[key] for key in keys.ravel().tolist()]).reshape(keys.shape)
    except KeyError:
        raise ValueError("a looked-up row is not in the table") from None


def _conjugation_table(invs: np.ndarray) -> tuple[np.ndarray, int]:
    """(conj, std): conj[i, j] is the row of pi_i invs[j] pi_i^-1, and std
    the row of the standard pairing (0 1)(2 3)..., which pi_i conjugates to
    invs[i]. pi_i sends 2t to a_t and 2t + 1 to invs[i][a_t], where a_t is
    the t-th least point below its partner.

    ValueError unless invs holds every fixed-point-free involution on its
    n points exactly once.
    """
    m, n = invs.shape
    if n % 2:
        raise ValueError(f"the scan takes an even number of points, not {n}")
    points = np.arange(n, dtype=DTYPE)
    if not ((invs >= 0) & (invs < n) & (invs != points)).all() or not (
        np.take_along_axis(invs, invs, axis=1) == points
    ).all():
        raise ValueError("a row is not a fixed-point-free involution")
    expected = math.prod(range(n - 1, 0, -2))
    if m != expected:
        raise ValueError(f"{n} points have {expected} fixed-point-free involutions, not {m}")
    a = np.nonzero(points < invs)[1].astype(DTYPE).reshape(m, n // 2)
    pi = np.empty_like(invs)
    pi[:, 0::2], pi[:, 1::2] = a, np.take_along_axis(invs, a, axis=1)
    # the conjugate c of invs[j] by pi[i] has c[pi[x]] = pi[invs[j][x]]
    moved = invs[:, np.argsort(pi, axis=1)].transpose(1, 0, 2)
    conj = _row_index(invs, np.take_along_axis(pi[:, None, :], moved, axis=2))
    return conj, int(_row_index(invs, points ^ 1))


def spherical_triples(invs: np.ndarray) -> np.ndarray:
    """Ordered triples (i, j, k) of rows of invs forming a spherical hypermap,
    in lexicographic order.

    invs: every fixed-point-free involution on n points, once each, as an
    (m, n) array (else ValueError). A triple is kept when it acts
    transitively with V + E + F - n/2 == 2, where V, E, F count the orbits
    of the generator pairs (j,k), (i,k), (i,j). Only the slice whose h0 is
    the standard pairing is filtered. Relabelling the points by pi_i (see
    _conjugation_table) preserves transitivity and orbit counts and maps
    that slice one-to-one onto the slice of h0 = invs[i], so the other
    slices are read off the table of conjugates.
    """
    invs = np.ascontiguousarray(invs, dtype=DTYPE)
    m, n = invs.shape
    conj, std = _conjugation_table(invs)
    points = np.arange(n, dtype=DTYPE)
    # labels[a, b], counts[a, b]: orbit labels and orbit count of <invs[a], invs[b]>
    labels = _pair_orbit_labels(*np.broadcast_arrays(invs[:, None], invs[None, :]))
    counts = (labels == points).sum(axis=-1)
    # V + E + F with V from (j,k), E from (std,k), F from (std,j)
    jk = np.argwhere(counts + counts[std] + counts[std, :, None] == n // 2 + 2)
    gens = np.stack(np.broadcast_arrays(invs[std], *invs[jk.T]), axis=1)
    j, k = jk[~_orbit_labels(gens, labels[std, jk[:, 0]]).any(axis=1)].T
    # slice i holds (i, conj[i, j], conj[i, k]), sorted by the key j' m + k'
    wide = conj * m
    out = np.empty((m, j.size, 3), dtype=DTYPE)
    for i in range(m):
        out[i, :, 0] = i
        out[i, :, 1], out[i, :, 2] = np.divmod(np.sort(wide[i, j] + conj[i, k]), m)
    return out.reshape(-1, 3)
