"""Exact computation of the complete cd-index of Bruhat intervals in S_n,
with T-set construction, flip bijections, and machine checks of the flip
and strong flip conditions and the shelling decomposition."""

from .complete import (
    CompleteCdIndex,
    ad_polynomials,
    complete_cd_index,
    restricted_ad_polynomial,
    shelling_decomposition,
)
from .errors import (
    CdIndexError,
    FlipUndefinedError,
    NotDecomposableError,
    NotInSubringError,
)
from .flips import (
    FlipWitness,
    TSetTable,
    check_flip_condition,
    check_strong_flip_condition,
    path_contribution,
    position_factor,
    sum_contributions,
)
from .intervals import (
    BruhatInterval,
    BruhatPath,
    ad_word,
    build_interval,
    export_dot,
    label_string,
)
from .ncpoly import (
    ADPolynomial,
    CDPolynomial,
    ad_form,
    ad_to_cd,
    bar,
    cd_monomials,
    decompose_left_a,
    parse_cd_monomial,
)
from .orders import ReflectionOrder, dihedral_violation, lex_order, order_from_reduced_word
from .perms import (
    Perm,
    Reflection,
    all_reflections,
    bruhat_leq,
    compose,
    format_perm,
    identity,
    length,
    longest_element,
    parse_perm,
)
from .verify import (
    CoefficientReport,
    RestrictedCountReport,
    check_restricted_counts,
    iter_intervals,
    scan_interval,
    verify_coefficient,
)

__version__ = "0.1.0"
