"""Independent oracles used to derive expected test values.

Everything here is deliberately written from scratch against plain tuples,
strings and dicts, without calling into the package, so that each checked
operation has two genuinely different routes to the same number.  The
exceptions are `enumerate_paths`, a tuple form of the package's own path
enumeration over a built interval, and the routes the package replaced
with faster ones,
kept as its reference: `closure_dihedral_violation` (the generic
subgroup-closure check of a reflection order), `interval_pairs` (the pairwise
Bruhat test over all of S_n), `restricted_count_reports` (one report
per reflection, each split read with `split_at`), `first_label_sums` and
`path_sums` (the graded sums read off enumerated paths), and
`walked_contribution_sum` and `walked_flip_condition` (the contribution
sum and the flip condition by a walk over every path),
`word_path_t_set` (a T-set as the paths of its word filtered by suffix
membership and `position_factor`, read from the store `word_paths`), and
`flip_dict_counts` (the cumulative first-label counts of T and of the
flip images, read off the flip as a dict of paths).  `table_paths` builds
the paths of a T-set table from its out-edges, one tuple per (vertex,
length) from the suffix tuples, independently of `iter_paths`, the walk
the witness replay uses; `table_path_words` lists the first-label rank and
word of each of those paths the same way, one entry per path.

Six more call into the package and moved here from it, as only tests ran
them: `flag_cd_index` (the classical cd-index of the interval poset from
chain counts, the flag oracle for the top degree, which `top_degree_part`
reads), `split_at` (the split at any rank, read off the shelling steps),
`expand_cd` (the substitution c = A + D, d = AD + DA), `edge_reflection`
(the label of a Bruhat-graph edge) and `tail_from` (the sub-path from a
vertex on).  So did `restricted_consistent`, the verdict of one
`RestrictedCountReport`, which the scan reads off the counts instead, and
`inverse` and `as_reflection` (the permutation inverse and the
transposition test that `edge_reflection` reads), once reflection orders
were read off the values of each reduced-word prefix.
"""

from __future__ import annotations

import itertools
import weakref
from bisect import bisect_right
from fractions import Fraction
from operator import itemgetter

from cdindex.complete import degree_range
from cdindex.errors import FlipUndefinedError
from cdindex.flips import FlipWitness, path_contribution, position_factor
from cdindex.intervals import BruhatPath, iter_paths, rank_word
from cdindex.ncpoly import ADPolynomial, CDPolynomial, ad_form, ad_to_cd, cd_degree
from cdindex.perms import Reflection, bruhat_leq, compose, length
from cdindex.verify import RestrictedCountReport


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


def inverse(p):
    inv = [0] * len(p)
    for k, v in enumerate(p):
        inv[v - 1] = k + 1
    return tuple(inv)


def as_reflection(p):
    """Return the Reflection equal to p, or None if p is not a transposition."""
    moved = [k for k, v in enumerate(p) if v != k + 1]
    if len(moved) != 2:
        return None
    a, b = moved
    if p[a] == b + 1 and p[b] == a + 1:
        return Reflection(a + 1, b + 1)
    return None


def edge_reflection(x, y):
    """Label of the Bruhat-graph edge from x to y, or None if there is none.

    There is an edge exactly when l(x) < l(y) and x^{-1} y is a reflection;
    the label is that reflection t, so that y = x*t.
    """
    if len(x) != len(y):
        raise ValueError(f"rank mismatch: {len(x)} vs {len(y)}")
    if length(x) >= length(y):
        return None
    return as_reflection(compose(inverse(x), y))


def expand_cd_monomial(monomial):
    """Expansion of one cd-monomial into AD-words by direct product of choices."""
    choices = [("A", "D") if ch == "c" else ("AD", "DA") for ch in monomial]
    counts = {}
    for combo in itertools.product(*choices):
        w = "".join(combo)
        counts[w] = counts.get(w, 0) + 1
    return counts


def expand_cd(p):
    """The ring homomorphism c -> A + D, d -> AD + DA, as an ADPolynomial."""
    acc = {}
    for mon, coeff in p.items():
        words = {"": coeff}
        for ch in mon:
            nxt = {}
            choices = ("A", "D") if ch == "c" else ("AD", "DA")
            for w, c in words.items():
                for suffix in choices:
                    nxt[w + suffix] = nxt.get(w + suffix, 0) + c
            words = nxt
        for w, c in words.items():
            acc[w] = acc.get(w, 0) + c
    return ADPolynomial(acc)


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


def closure_dihedral_violation(sequence):
    """The generic dihedral check, by subgroup closure over plain tuples.

    For each pair of reflections, in lexicographic order, close the
    subgroup they generate and take its reflections R'.  Its two canonical
    generators are the reflections that no other member of R' shortens from
    the left, and the order's restriction to R' must be the alternating
    chain a, aba, ababa, ..., b read from the order-smaller one.  Returns R'
    sorted by the order for the first failing pair, or None.  Independent
    of the package's S_n-specific triple rule.
    """
    pos = {tuple(t): k for k, t in enumerate(sequence)}
    n = max(j for _, j in pos)

    def perm(t):
        p = list(range(1, n + 1))
        p[t[0] - 1], p[t[1] - 1] = t[1], t[0]
        return tuple(p)

    def mul(p, q):
        return tuple(p[v - 1] for v in q)

    refl_of = {perm(t): t for t in pos}
    seen = set()
    for a, b in itertools.combinations(sorted(pos), 2):
        gens = (perm(a), perm(b))
        group, frontier = set(gens), list(gens)
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = mul(x, g)
                    if y not in group:
                        group.add(y)
                        nxt.append(y)
            frontier = nxt
        refls = frozenset(refl_of[p] for p in group if p in refl_of)
        if refls in seen:
            continue
        seen.add(refls)
        canonical = [
            t for t in refls
            if not any(s != t and inversions(mul(perm(s), perm(t))) < inversions(perm(t))
                       for s in refls)
        ]
        assert len(canonical) == 2, "a dihedral subgroup has two canonical generators"
        lo, hi = (perm(t) for t in sorted(canonical, key=pos.get))
        expected, acc = [], lo
        for _ in refls:
            expected.append(refl_of[acc])
            acc = mul(mul(lo, hi), acc)
        restriction = sorted(refls, key=pos.get)
        if restriction != expected:
            return tuple(restriction)
    return None


def enumerate_paths(iv, n):
    """All length-n paths from iv.u to iv.v, in lexicographic label order.

    An n of the wrong parity (or n > length_diff - 1, or n < 0) gives [].
    """
    return list(iter_paths(iv.adjacency, iv.u, iv.v, n))


def tail_from(path, m):
    """The sub-path of `path` starting at its vertex x_m."""
    return BruhatPath(path.vertices[m:], path.labels[m:])


_TABLE_PATHS = weakref.WeakKeyDictionary()


def table_paths(table, w, n):
    """All length-n paths w -> table.sink, lex-sorted by label ranks under
    the table's order, stored per table and sharing suffixes: the (w, n)
    tuple is built once, from the (y, n - 1) tuples of the out-edges (t, y)
    of w, which the table holds in rank order."""
    store = _TABLE_PATHS.setdefault(table, {})
    hit = store.get((w, n))
    if hit is None:
        if n <= 0:
            hit = tuple(
                BruhatPath((w, y), (t,)) for t, y in table._adjacency[w]
                if n == 0 and y == table.sink
            )
        else:
            hit = tuple(
                BruhatPath((w,) + p.vertices, (t,) + p.labels)
                for t, y in table._adjacency[w]
                for p in table_paths(table, y, n - 1)
            )
        store[(w, n)] = hit
    return hit


def t_set_members(table):
    """A lookup members(w, gamma): frozenset(table.t_set(w, gamma)), each
    set built once."""
    sets = {}

    def members(w, gamma):
        hit = sets.get((w, gamma))
        if hit is None:
            hit = sets[(w, gamma)] = frozenset(table.t_set(w, gamma))
        return hit

    return members


def interval_pairs(n, max_length=None):
    """Every (u, v) with u < v in S_n, by n!^2 Bruhat tests, sorted by (gap, u, v)."""
    elements = [tuple(p) for p in itertools.permutations(range(1, n + 1))]
    pairs = []
    for u in elements:
        for v in elements:
            if u == v:
                continue
            gap = length(v) - length(u)
            if gap <= 0 or (max_length is not None and gap > max_length):
                continue
            if bruhat_leq(u, v):
                pairs.append((gap, u, v))
    pairs.sort()
    return [(u, v) for _, u, v in pairs]


def restricted_count_reports(u, monomial, table, splits):
    """One RestrictedCountReport per reflection of the table's order, in order."""
    gamma = ad_form(monomial)
    order = table.order
    steps = splits.get(cd_degree(monomial), [])
    t_ranks = sorted(order.rank(p.labels[0]) for p in table.t_set(u, gamma))
    tbar_ranks = sorted(order.rank(p.labels[0]) for p in table.t_set(u, gamma, bar=True))
    reports = []
    for t in order.sequence:
        bound = order.rank(t)
        f, g = split_at(steps, bound)
        coeff_f = f.coefficient(monomial)
        coeff_cg = g.coefficient(monomial[1:]) if monomial.startswith("c") else 0
        reports.append(RestrictedCountReport(
            u, table.sink, monomial, t, bisect_right(t_ranks, bound),
            bisect_right(tbar_ranks, bound), coeff_f, coeff_f + coeff_cg,
        ))
    return reports


def restricted_consistent(rep):
    """Whether a RestrictedCountReport's restricted T-bar count is the f
    coefficient and its restricted T count the f + c*g one."""
    return rep.tbar_restricted == rep.coeff_f and rep.t_restricted == rep.coeff_f_plus_cg


def first_inconsistent(reports):
    """The first report that fails, or None."""
    return next((rep for rep in reports if not restricted_consistent(rep)), None)


def split_at(steps, bound):
    """The split whose restricted sum has first-label ranks <= bound.

    The restricted path set grows only at a populated rank, so the split
    of the last step at a rank <= bound holds up to the next step, and
    below the first step the split is (0, 0).
    """
    k = bisect_right(steps, bound, key=itemgetter(0))
    return steps[k - 1][1] if k else (CDPolynomial(), CDPolynomial())


def top_degree_part(index):
    """The part of a complete cd-index in its highest degree, or 0."""
    if not index.by_degree:
        return CDPolynomial()
    return index.by_degree[max(index.by_degree)]


def flag_cd_index(iv):
    """Classical cd-index of the interval poset, from chain counts.

    For every subset S of the proper ranks 1..L-1, f_S counts the chains
    u < z_1 < ... < z_k < v whose lengths-above-u hit exactly S; the flag
    h-vector is its inclusion-exclusion transform, and reading each h_S as
    an ab-word (b on S, a elsewhere, encoded here as D and A) gives the
    ab-index, which is a cd-polynomial precisely because Bruhat intervals
    are Eulerian.  Conversion failure would disprove Eulerian-ness, i.e.
    flag a bug.  It touches none of the path machinery, so the top-degree
    part of the complete cd-index must agree with it.
    """
    L = iv.length_diff
    if L < 1:
        raise ValueError("flag cd-index needs a nontrivial interval")
    base = length(iv.u)
    by_rank = {}
    for x in iv.elements:
        by_rank.setdefault(length(x) - base, []).append(x)
    for level in by_rank.values():
        level.sort()
    ranks = range(1, L)
    f_vec = {}
    for size in range(L):
        for subset in itertools.combinations(ranks, size):
            f_vec[subset] = _chain_count(by_rank, subset)
    ab = {}
    for subset in f_vec:
        h = 0
        for size in range(len(subset) + 1):
            for inner in itertools.combinations(subset, size):
                h += (-1) ** (len(subset) - len(inner)) * f_vec[inner]
        if h:
            word = "".join("D" if r in subset else "A" for r in ranks)
            ab[word] = h
    return ad_to_cd(ADPolynomial(ab))


def _chain_count(by_rank, subset):
    """Number of chains through the given ranks, one element per rank."""
    acc = None
    for r in subset:
        nxt = {}
        for z in by_rank.get(r, []):
            if acc is None:
                nxt[z] = 1
            else:
                nxt[z] = sum(c for y, c in acc.items() if bruhat_leq(y, z))
        acc = nxt
    if acc is None:
        return 1
    return sum(acc.values())


def first_label_sums(paths, order):
    """Word sums of same-length paths, keyed by ascending first-label rank."""
    rank = {t: order.rank(t) for t in order.sequence}
    return word_buckets(
        (rank[path.labels[0]], rank_word([rank[t] for t in path.labels])) for path in paths
    )


def word_buckets(ranked_words):
    """Word sums keyed by ascending first-label rank, one (rank, word) pair
    per path, each counted once."""
    buckets = {}
    for r, w in ranked_words:
        acc = buckets.setdefault(r, {})
        acc[w] = acc.get(w, 0) + 1
    return {r: ADPolynomial(buckets[r]) for r in sorted(buckets)}


_TABLE_WORDS = weakref.WeakKeyDictionary()


def table_path_words(table, w, n):
    """(first-label rank, AD-word) of each path of `table_paths(table, w,
    n)`, in its order, stored per table: a path is an out-edge (t, y) of w
    followed by a path from y, so its word is the letter read across the
    splice in front of that path's word."""
    store = _TABLE_WORDS.setdefault(table, {})
    hit = store.get((w, n))
    if hit is None:
        rank = table.order.rank
        if n <= 0:
            hit = tuple(
                (rank(t), "") for t, y in table._adjacency[w] if n == 0 and y == table.sink
            )
        else:
            hit = tuple(
                (r, ("A" if r < r_tail else "D") + word)
                for r, y in ((rank(t), y) for t, y in table._adjacency[w])
                for r_tail, word in table_path_words(table, y, n - 1)
            )
        store[(w, n)] = hit
    return hit


def path_sums(iv, order):
    """Graded first-label sums of a built interval [u, v], one enumeration per degree."""
    return {
        n: first_label_sums(iter_paths(iv.adjacency, iv.u, iv.v, n), order)
        for n in degree_range(iv.length_diff)
    }


def walked_contribution_sum(u, monomial, table):
    """The signed contribution sum, one `path_contribution` per path u -> sink.

    Raises FlipUndefinedError where a path needs an undefined flip."""
    n = len(ad_form(monomial))
    return sum(path_contribution(p, monomial, table) for p in table_paths(table, u, n))


def walked_flip_condition(u, monomial, table):
    """The flip condition by a walk over every path u -> sink, in lex order:
    the first (path, D position) whose tail lies in its T-set and whose
    factor is -1, or the first undefined flip, as a witness; else None."""
    gamma = ad_form(monomial)
    n = len(gamma)
    members = t_set_members(table)
    try:
        for path in table_paths(table, u, n):
            for m in range(1, n + 1):
                if gamma[m - 1] != "D":
                    continue
                if tail_from(path, m) not in members(path.vertices[m], gamma[m:]):
                    continue
                if position_factor(path, m, gamma, table) == -1:
                    return FlipWitness("minus-one-at-m", monomial, path, m)
    except FlipUndefinedError as exc:
        return FlipWitness("size-mismatch", monomial, detail=str(exc))
    return None


_BAR = str.maketrans("AD", "DA")
_WORD_PATHS = weakref.WeakKeyDictionary()


def word_paths(table, w, gamma, bar=False):
    """The paths w -> table.sink whose AD-word is gamma, lex-sorted by label
    ranks, stored per table; with `bar`, the same under the reversed order,
    read off the table's tuple for the barred word, reversed: the same path
    objects."""
    if bar:
        return word_paths(table, w, gamma.translate(_BAR))[::-1]
    store = _WORD_PATHS.setdefault(table, {})
    hit = store.get((w, gamma))
    if hit is None:
        hit = store[(w, gamma)] = _extend(table, w, gamma)
    return hit


def _extend(table, w, gamma):
    """An edge (t, y) out of w, then a path from y with word gamma[1:] whose
    first label ascends from t exactly when gamma starts with A."""
    if not table._reaches(w, len(gamma) + 1):
        return ()
    if not gamma:
        return table_paths(table, w, 0)
    rank = table.order.rank
    ascent = gamma[0] == "A"
    return tuple(
        BruhatPath((w,) + p.vertices, (t,) + p.labels)
        for t, y in table._adjacency[w]
        for p in word_paths(table, y, gamma[1:])
        if (rank(t) < rank(p.labels[0])) == ascent
    )


def word_path_t_set(table, w, gamma, members=None):
    """T(w, gamma) by the word-path route: the paths with word gamma whose
    tail lies in the table's suffix T-set and whose first factor is +1.
    `members` is a `t_set_members` lookup of the table, shared between
    calls, or a fresh one."""
    members = members or t_set_members(table)
    return tuple(
        p for p in word_paths(table, w, gamma)
        if not gamma or (
            tail_from(p, 1) in members(p.vertices[1], gamma[1:])
            and position_factor(p, 1, gamma, table) == 1
        )
    )


def flip_dict_counts(table, w, gamma):
    """(p, q): for r = 0..N, p[r] counts the paths tau of T(w, gamma) and
    q[r] the images flip(tau) whose first label has rank <= r, read off
    the path flip dict."""
    rank = table.order.rank
    n = len(table.order.sequence)
    p, q = [0] * (n + 1), [0] * (n + 1)
    for x, y in table.flip(w, gamma).items():
        p[rank(x.labels[0])] += 1
        q[rank(y.labels[0])] += 1
    return tuple(itertools.accumulate(p)), tuple(itertools.accumulate(q))
