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

from typing import Iterable, Iterator, Mapping, Optional, Union

from .errors import InconsistentExpansionError, NotDecomposableError, NotInSubringError

_BAR = str.maketrans("AD", "DA")


class _WordPolynomial:
    """Immutable integer linear combination of words over a fixed alphabet."""

    __slots__ = ("_terms",)
    alphabet = ""

    def __init__(self, terms: Union[Mapping[str, int], Iterable[tuple[str, int]]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[str, int] = {}
        for word, coeff in items:
            if any(ch not in self.alphabet for ch in word):
                raise ValueError(
                    f"monomial {word!r} not over alphabet {self.alphabet!r}"
                )
            if coeff:
                acc[word] = acc.get(word, 0) + coeff
        self._terms = {w: c for w, c in acc.items() if c}

    def coefficient(self, word: str) -> int:
        return self._terms.get(word, 0)

    def items(self) -> Iterator[tuple[str, int]]:
        return iter(sorted(self._terms.items()))

    def monomials(self) -> list[str]:
        return sorted(self._terms)

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
        return type(self)(acc)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        acc = dict(self._terms)
        for w, c in other._terms.items():
            acc[w] = acc.get(w, 0) - c
        return type(self)(acc)

    def __neg__(self):
        return type(self)({w: -c for w, c in self._terms.items()})

    def __rmul__(self, scalar: int):
        if not isinstance(scalar, int):
            return NotImplemented
        return type(self)({w: scalar * c for w, c in self._terms.items()})

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        acc: dict[str, int] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1 + w2
                acc[w] = acc.get(w, 0) + c1 * c2
        return type(self)(acc)

    def word_degree(self, word: str) -> int:
        return len(word)

    def degrees(self) -> set[int]:
        return {self.word_degree(w) for w in self._terms}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self) -> int:
        """Degree of a nonzero homogeneous polynomial."""
        degs = self.degrees()
        if len(degs) != 1:
            raise ValueError("polynomial is zero or mixed-degree")
        return degs.pop()

    def homogeneous_part(self, n: int):
        return type(self)(
            {w: c for w, c in self._terms.items() if self.word_degree(w) == n}
        )

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


def cd_monomials(n: int) -> list[str]:
    """All cd-monomials of graded degree n, lexicographically (c before d).

    >>> cd_monomials(3)
    ['ccc', 'cd', 'dc']
    >>> [len(cd_monomials(k)) for k in range(7)]
    [1, 1, 2, 3, 5, 8, 13]
    """
    if n < 0:
        return []
    if n == 0:
        return [""]
    out = ["c" + m for m in cd_monomials(n - 1)]
    if n >= 2:
        out += ["d" + m for m in cd_monomials(n - 2)]
    return sorted(out)


def ad_form(monomial: str) -> str:
    """AD-word of a cd-monomial under c -> A, d -> DA.

    The image words are exactly those in which every D is followed by an A,
    and the map is a bijection onto them.

    >>> ad_form("d"), ad_form("dd"), ad_form("cd")
    ('DA', 'DADA', 'ADA')
    """
    return "".join("A" if ch == "c" else "DA" for ch in monomial)


def expand_cd(p: CDPolynomial) -> ADPolynomial:
    """Ring homomorphism c -> A + D, d -> AD + DA.

    >>> expand_cd(CDPolynomial({"c": 1}))
    A + D
    """
    acc: dict[str, int] = {}
    for mon, coeff in p.items():
        words = {"": coeff}
        for ch in mon:
            nxt: dict[str, int] = {}
            choices = ("A", "D") if ch == "c" else ("AD", "DA")
            for w, c in words.items():
                for suffix in choices:
                    nxt[w + suffix] = nxt.get(w + suffix, 0) + c
            words = nxt
        for w, c in words.items():
            acc[w] = acc.get(w, 0) + c
    return ADPolynomial(acc)


def bar(p: ADPolynomial) -> ADPolynomial:
    """The involution swapping A and D in every monomial."""
    return ADPolynomial({w.translate(_BAR): c for w, c in p.items()})


def ad_to_cd(p: ADPolynomial) -> CDPolynomial:
    """Inverse of expand_cd on its image, degree by degree.

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
    return CDPolynomial(result)


def _sub(p: dict[str, int], q: dict[str, int]) -> dict[str, int]:
    """p - q on word -> coefficient dicts, zero coefficients dropped."""
    out = dict(p)
    for w, c in q.items():
        out[w] = out.get(w, 0) - c
    return {w: c for w, c in out.items() if c}


def _front_split(diff: dict[str, int]) -> Optional[dict[str, int]]:
    """Y with diff = D*Y - A*Y exactly, or None when diff has another shape."""
    y = {w[1:]: c for w, c in diff.items() if w[:1] == "D"}
    if len(diff) != 2 * len(y) or any(diff.get("A" + w) != -c for w, c in y.items()):
        return None
    return y


def _peel(terms: dict[str, int], n: int) -> Optional[dict[str, int]]:
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


def d_power_expansion(p: ADPolynomial, n: int) -> tuple[CDPolynomial, ...]:
    """Expansion p = f_n + f_{n-1} D + f_{n-2} D^2 + ... + f_0 D^n.

    p must be homogeneous of degree n.  The f_i are cd-polynomials of degree
    i and the expansion, when it exists, is unique.  Only f_m contributes
    words ending in A to the degree-m remainder; if those are u*A with
    u = Q + R*D, then f_m = Q*c + R*d expands to u*A + bar(u)*D, which goes
    through `ad_to_cd`.  Not every AD-polynomial admits an expansion
    (already in degree 3 the candidate monomials span a proper subspace),
    in which case InconsistentExpansionError is raised.

    >>> d_power_expansion(ADPolynomial({"D": 1}), 1)
    (0, 1)
    """
    if p and (not p.is_homogeneous() or p.degree() != n):
        raise ValueError(f"polynomial is not homogeneous of degree {n}")
    fs: list[CDPolynomial] = []
    rest = dict(p.items())
    for _ in range(n):
        u = {w[:-1]: c for w, c in rest.items() if w[-1] == "A"}
        level = {w + "A": c for w, c in u.items()}
        level.update({w.translate(_BAR) + "D": c for w, c in u.items()})
        try:
            fs.append(ad_to_cd(ADPolynomial(level)))
        except NotInSubringError as exc:
            raise InconsistentExpansionError(f"no D-power expansion: {exc}") from exc
        # the words ending in A cancel, so every word left ends in D
        rest = {w[:-1]: c for w, c in _sub(rest, level).items()}
    fs.append(CDPolynomial({"": rest.get("", 0)}))
    return tuple(fs)


def decompose_left_a(p: ADPolynomial, n: int) -> tuple[CDPolynomial, CDPolynomial]:
    """Split p = f + A*g with f, g cd-polynomials of degrees n, n-1.

    Both f and g are bar-invariant, so bar(p) - p = (D - A)*g recovers g;
    f = p - A*g and g then go through the exact cd conversion.  Raises
    NotDecomposableError when no such split exists; when it exists it is
    unique.

    >>> decompose_left_a(ADPolynomial({"AA": 1, "AD": 1}), 2)
    (0, c)
    """
    if p and (not p.is_homogeneous() or p.degree() != n):
        raise ValueError(f"polynomial is not homogeneous of degree {n}")
    terms = dict(p.items())
    g_terms = _front_split(_sub(dict(bar(p).items()), terms))
    if g_terms is None:
        raise NotDecomposableError("no f + A*g split: A*g - D*g shape fails")
    f_terms = _sub(terms, {"A" + w: c for w, c in g_terms.items()})
    try:
        f = ad_to_cd(ADPolynomial(f_terms)) if f_terms else CDPolynomial()
        g = ad_to_cd(ADPolynomial(g_terms)) if g_terms else CDPolynomial()
    except NotInSubringError as exc:
        raise NotDecomposableError(f"no f + A*g split: {exc}") from exc
    return f, g
