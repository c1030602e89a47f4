"""
Exact integer polynomials in the noncommuting variables A, D and c, d.

Monomials are plain strings over the alphabet {A, D} or {c, d}; the empty
string is the constant monomial (printed and parsed as "1").  Grading gives
A, D and c degree 1 and d degree 2.  Substituting c = A + D, d = AD + DA
embeds the cd-polynomials into the AD-polynomials.  Every polynomial in
the image is fixed by the bar involution that swaps A and D, but not
conversely: AAA + DDD is fixed by bar and is not in the image.  On the
image the substitution is inverted by `ad_to_cd`, which peels leading
letters and raises NotInSubringError on anything else.

The number of cd-monomials of degree n is the Fibonacci number F(n+1)
(1, 1, 2, 3, 5, 8, ...), the dimension of the image in degree n.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from functools import lru_cache

from .errors import NotDecomposableError, NotInSubringError

_BAR = str.maketrans("AD", "DA")

# Many word sums recur, so both conversions keep their recent results; the
# polynomials are immutable and hashable, and a raised error is not kept.
# A scan reaches them only for the first interval of each class of equal
# graded sums (verify's cd-side memo, of the same size, sits in front), and
# its distinct sums recur across classes: a scan of S_5 up to gap 3, under
# lex or the benchmark's seed-1 order, makes 196 `ad_to_cd` calls on 7
# distinct sums and 295 `decompose_left_a` calls on 4.
_MEMO_SIZE = 512


class _WordPolynomial:
    """Immutable integer linear combination of words over a fixed alphabet."""

    __slots__ = ("_terms",)
    alphabet = ""

    def __init__(self, terms: Mapping[str, int] | None = None):
        terms = terms or {}
        for word in terms:
            if word.strip(self.alphabet):
                raise ValueError(
                    f"monomial {word!r} not over alphabet {self.alphabet!r}"
                )
        self._terms = {w: c for w, c in terms.items() if c}

    @classmethod
    def _of(cls, terms: dict[str, int]):
        """A polynomial from words already over the alphabet: no alphabet
        check, zero coefficients still dropped."""
        p = cls.__new__(cls)
        p._terms = {w: c for w, c in terms.items() if c}
        return p

    def coefficient(self, word: str) -> int:
        return self._terms.get(word, 0)

    def items(self) -> Iterator[tuple[str, int]]:
        return iter(sorted(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._terms == other._terms

    def __hash__(self):
        return hash((type(self), tuple(sorted(self._terms.items()))))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        acc = dict(self._terms)
        for w, c in other._terms.items():
            acc[w] = acc.get(w, 0) + c
        return self._of(acc)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        acc = dict(self._terms)
        for w, c in other._terms.items():
            acc[w] = acc.get(w, 0) - c
        return self._of(acc)

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        acc: dict[str, int] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1 + w2
                acc[w] = acc.get(w, 0) + c1 * c2
        return self._of(acc)

    def word_degree(self, word: str) -> int:
        return len(word)

    def to_json(self) -> dict[str, int]:
        """Map monomial -> coefficient, the empty monomial spelled "1"."""
        return {(w or "1"): c for w, c in sorted(self._terms.items())}

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for w, c in sorted(
            self._terms.items(), key=lambda wc: (self.word_degree(wc[0]), wc[0])
        ):
            word = w or "1"
            if c == 1:
                parts.append(word)
            elif c == -1:
                parts.append(f"-{word}")
            else:
                parts.append(f"{c}*{word}")
        return " + ".join(parts).replace("+ -", "- ")


class ADPolynomial(_WordPolynomial):
    """Integer polynomial in the noncommuting variables A and D."""

    alphabet = "AD"


class CDPolynomial(_WordPolynomial):
    """Integer polynomial in the noncommuting variables c (degree 1) and d (degree 2)."""

    alphabet = "cd"

    def word_degree(self, word: str) -> int:
        return cd_degree(word)


def cd_degree(monomial: str) -> int:
    """Graded degree of a cd-monomial: #c + 2 * #d."""
    return len(monomial) + monomial.count("d")


def parse_cd_monomial(text: str) -> str:
    """Parse a cd-monomial string; "1" (or "") is the constant monomial.

    >>> parse_cd_monomial("ccd")
    'ccd'
    >>> parse_cd_monomial("1")
    ''
    """
    if text in ("1", ""):
        return ""
    if any(ch not in "cd" for ch in text):
        raise ValueError(f"not a cd-monomial: {text!r}")
    return text


# A scan asks for the monomials of each degree, and the AD-form of each,
# once per interval.  Both are kept: one entry per degree and one per
# monomial asked for, which the degrees of S_n bound.
@lru_cache(maxsize=None)
def cd_monomials(n: int) -> tuple[str, ...]:
    """All cd-monomials of graded degree n, lexicographically (c before d).

    >>> cd_monomials(3)
    ('ccc', 'cd', 'dc')
    >>> [len(cd_monomials(k)) for k in range(7)]
    [1, 1, 2, 3, 5, 8, 13]
    """
    if n < 0:
        return ()
    if n == 0:
        return ("",)
    out = ["c" + m for m in cd_monomials(n - 1)]
    if n >= 2:
        out += ["d" + m for m in cd_monomials(n - 2)]
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def ad_form(monomial: str) -> str:
    """AD-word of a cd-monomial under c -> A, d -> DA.

    The image words are exactly those in which every D is followed by an A,
    and the map is a bijection onto them.

    >>> ad_form("d"), ad_form("dd"), ad_form("cd")
    ('DA', 'DADA', 'ADA')
    """
    return "".join("A" if ch == "c" else "DA" for ch in monomial)


def bar(p: ADPolynomial) -> ADPolynomial:
    """The involution swapping A and D in every monomial."""
    return ADPolynomial._of({w.translate(_BAR): c for w, c in p._terms.items()})


@lru_cache(maxsize=_MEMO_SIZE)
def ad_to_cd(p: ADPolynomial) -> CDPolynomial:
    """Inverse of the substitution c = A + D, d = AD + DA on its image.

    Each homogeneous part is peeled from the front (see `_peel`); a part
    outside the image raises NotInSubringError.

    >>> ad_to_cd(ADPolynomial({"A": 1, "D": 1}))
    c
    """
    parts: dict[int, dict[str, int]] = {}
    for w, c in p.items():
        parts.setdefault(len(w), {})[w] = c
    result: dict[str, int] = {}
    for n, terms in sorted(parts.items()):
        cd = _peel(terms, n)
        if cd is None:
            raise NotInSubringError(
                f"degree-{n} part is not a polynomial in c and d: {ADPolynomial(terms)!r}"
            )
        result.update(cd)
    return CDPolynomial._of(result)


def _sub(p: dict[str, int], q: dict[str, int]) -> dict[str, int]:
    """p - q on word -> coefficient dicts, zero coefficients dropped."""
    out = dict(p)
    for w, c in q.items():
        out[w] = out.get(w, 0) - c
    return {w: c for w, c in out.items() if c}


def _front_split(diff: dict[str, int]) -> dict[str, int] | None:
    """Y with diff = D*Y - A*Y exactly, or None when diff has another shape."""
    y = {w[1:]: c for w, c in diff.items() if w[:1] == "D"}
    if len(diff) != 2 * len(y) or any(diff.get("A" + w) != -c for w, c in y.items()):
        return None
    return y


def _peel(terms: dict[str, int], n: int) -> dict[str, int] | None:
    """cd-coefficients of a degree-n AD part, or None outside the image.

    Writing the part as P = c*X + d*Y (X, Y expanded) gives
    A^-1 P = X + D*Y and D^-1 P = X + A*Y, so A^-1 P - D^-1 P = (D - A)*Y
    yields Y, then X = D^-1 P - A*Y; both recurse on lower degrees.  When
    the split exists the reconstruction A*(X + D*Y) + D*(X + A*Y) is P
    itself, so no further residue check is needed.
    """
    if not terms:
        return {}
    if n == 0:
        return dict(terms)
    after_a: dict[str, int] = {}
    after_d: dict[str, int] = {}
    for w, c in terms.items():
        (after_a if w[0] == "A" else after_d)[w[1:]] = c
    y = _front_split(_sub(after_a, after_d))
    if y is None:
        return None
    cx = _peel(_sub(after_d, {"A" + w: c for w, c in y.items()}), n - 1)
    cy = _peel(y, n - 2)
    if cx is None or cy is None:
        return None
    out = {"c" + m: c for m, c in cx.items()}
    out.update({"d" + m: c for m, c in cy.items()})
    return out


@lru_cache(maxsize=_MEMO_SIZE)
def decompose_left_a(p: ADPolynomial, n: int) -> tuple[CDPolynomial, CDPolynomial]:
    """Split p = f + A*g with f, g cd-polynomials of degrees n, n-1.

    Both f and g are bar-invariant, so bar(p) - p = (D - A)*g recovers g;
    f = p - A*g and g then go through the exact cd conversion.  Raises
    NotDecomposableError when no such split exists; when it exists it is
    unique.

    >>> decompose_left_a(ADPolynomial({"AA": 1, "AD": 1}), 2)
    (0, c)
    """
    terms = p._terms
    if any(len(w) != n for w in terms):
        raise ValueError(f"polynomial is not homogeneous of degree {n}")
    g_terms = _front_split(_sub(bar(p)._terms, terms))
    if g_terms is None:
        raise NotDecomposableError("no f + A*g split: A*g - D*g shape fails")
    f_terms = _sub(terms, {"A" + w: c for w, c in g_terms.items()})
    try:
        f = ad_to_cd(ADPolynomial._of(f_terms)) if f_terms else CDPolynomial()
        g = ad_to_cd(ADPolynomial._of(g_terms)) if g_terms else CDPolynomial()
    except NotInSubringError as exc:
        raise NotDecomposableError(f"no f + A*g split: {exc}") from exc
    return f, g
