"""Independent oracles used to derive expected test values.

Everything here is deliberately written from scratch against plain tuples,
strings and dicts, without calling into the package, so that each checked
operation has two genuinely different routes to the same number.  The one
exception is `enumerate_paths`, a list form of the package's own path
enumeration that only the tests read.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from cdindex.intervals import iter_paths


def inversions(p):
    """Number of out-of-order pairs, counted by brute enumeration."""
    return sum(
        1
        for a, b in itertools.combinations(range(len(p)), 2)
        if p[a] > p[b]
    )


def up_neighbors(x):
    """All (y, (i, j)) with y = x after swapping positions i < j and more inversions."""
    out = []
    for i, j in itertools.combinations(range(len(x)), 2):
        y = list(x)
        y[i], y[j] = y[j], y[i]
        y = tuple(y)
        if inversions(y) > inversions(x):
            out.append((y, (i + 1, j + 1)))
    return out


def bruhat_leq_closure(u, v):
    """Reachability in the edge relation, breadth-first with a length cap."""
    if u == v:
        return True
    cap = inversions(v)
    seen = {u}
    frontier = [u]
    while frontier:
        nxt = []
        for x in frontier:
            for y, _ in up_neighbors(x):
                if y == v:
                    return True
                if inversions(y) < cap and y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return False


def moved_points(p):
    return [k + 1 for k, val in enumerate(p) if val != k + 1]


def expand_cd_monomial(monomial):
    """Expansion of one cd-monomial into AD-words by direct product of choices."""
    choices = [("A", "D") if ch == "c" else ("AD", "DA") for ch in monomial]
    counts = {}
    for combo in itertools.product(*choices):
        w = "".join(combo)
        counts[w] = counts.get(w, 0) + 1
    return counts


def cd_monomials_of_degree(n):
    """All words over {c, d} of graded degree n (c = 1, d = 2)."""
    if n < 0:
        return []
    if n == 0:
        return [""]
    out = ["c" + m for m in cd_monomials_of_degree(n - 1)]
    out += ["d" + m for m in cd_monomials_of_degree(n - 2)]
    return sorted(out)


def rref_solve(columns, rhs):
    """Solve sum x_j columns[j] = rhs by reduced row echelon form.

    Returns a list of Fractions, or None if inconsistent.  Assumes the
    columns are independent (our conversion bases are).
    """
    keys = sorted(set(rhs) | {k for col in columns for k in col})
    aug = [
        [Fraction(col.get(k, 0)) for col in columns] + [Fraction(rhs.get(k, 0))]
        for k in keys
    ]
    nrows, ncols = len(aug), len(columns)
    row = 0
    pivots = []
    for col in range(ncols):
        sel = None
        for r in range(row, nrows):
            if aug[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for r in range(nrows):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    for r in range(row, nrows):
        if aug[r][-1] != 0:
            return None
    assert len(pivots) == ncols, "oracle assumes independent columns"
    sol = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        sol[col] = aug[r][-1]
    return sol


def solve_ad_to_cd(ad_terms, degree):
    """Coefficients {cd-monomial: int} of an AD-polynomial, or None."""
    basis = cd_monomials_of_degree(degree)
    columns = [expand_cd_monomial(m) for m in basis]
    sol = rref_solve(columns, ad_terms)
    if sol is None:
        return None
    assert all(x.denominator == 1 for x in sol)
    return {m: int(x) for m, x in zip(basis, sol) if x}


def solve_d_power_expansion(ad_terms, degree):
    """All (f_i) with p = sum expand(f_i) D^{degree-i}, by one joint solve."""
    basis = []
    columns = []
    for k in range(degree + 1):
        for m in cd_monomials_of_degree(degree - k):
            basis.append((k, m))
            columns.append(
                {w + "D" * k: c for w, c in expand_cd_monomial(m).items()}
            )
    sol = rref_solve(columns, ad_terms)
    if sol is None:
        return None
    assert all(x.denominator == 1 for x in sol)
    levels = [dict() for _ in range(degree + 1)]
    for (k, m), x in zip(basis, sol):
        if x:
            levels[k][m] = int(x)
    return levels


def solve_decompose_left_a(ad_terms, degree):
    """(f, g) with p = expand(f) + A expand(g), by one joint solve, or None."""
    basis = []
    columns = []
    for m in cd_monomials_of_degree(degree):
        basis.append(("f", m))
        columns.append(expand_cd_monomial(m))
    for m in cd_monomials_of_degree(degree - 1):
        basis.append(("g", m))
        columns.append({"A" + w: c for w, c in expand_cd_monomial(m).items()})
    sol = rref_solve(columns, ad_terms)
    if sol is None:
        return None
    assert all(x.denominator == 1 for x in sol)
    f, g = {}, {}
    for (which, m), x in zip(basis, sol):
        if x:
            (f if which == "f" else g)[m] = int(x)
    return f, g


def count_paths_dp(adjacency, u, v, edges):
    """Number of paths u -> v with the given number of edges, by level DP."""
    cur = {u: 1}
    for _ in range(edges):
        nxt = {}
        for x, c in cur.items():
            for _, y in adjacency.get(x, ()):
                nxt[y] = nxt.get(y, 0) + c
        cur = nxt
    return cur.get(v, 0)


def count_maximal_chains(u, v):
    """Saturated chains u -> v stepping one inversion at a time."""
    if u == v:
        return 1
    total = 0
    for y, _ in up_neighbors(u):
        if inversions(y) == inversions(u) + 1 and bruhat_leq_closure(y, v):
            total += count_maximal_chains(y, v)
    return total


def reflection_order_triple_violations(sequence):
    """S_n-specific dihedral check: (i k) must sit between (i j) and (j k).

    Returns the list of violating triples; independent of the package's
    generic subgroup-closure validator.
    """
    pos = {t: k for k, t in enumerate(sequence)}
    n = max(j for _, j in sequence)
    bad = []
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        lo, mid, hi = sorted(
            [(i, j), (i, k), (j, k)], key=lambda t: pos[tuple(t)]
        )
        if mid != (i, k):
            bad.append(((i, j), (i, k), (j, k)))
    return bad


def enumerate_paths(iv, n):
    """All length-n paths from iv.u to iv.v, in lexicographic label order.

    An n of the wrong parity (or n > length_diff - 1, or n < 0) gives [].
    """
    return list(iter_paths(iv.adjacency, iv.u, iv.v, n))
