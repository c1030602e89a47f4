"""Exact computation of the complete cd-index of Bruhat intervals in S_n,
with T-set construction, flip bijections, and machine checks of the flip
and strong flip conditions and the shelling decomposition."""

from .complete import (
    CompleteCdIndex,
    ShellingDecomposition,
    ad_polynomials,
    complete_cd_index,
    first_label_sums,
    flag_cd_index,
    path_sums,
    restricted_ad_polynomial,
    shelling_decomposition,
)
from .errors import (
    CdIndexError,
    FlipUndefinedError,
    InconsistentExpansionError,
    NotDecomposableError,
    NotInSubringError,
)
from .flips import (
    FlipWitness,
    TSetTable,
    check_flip_condition,
    check_strong_flip_condition,
    compute_t_bar_set,
    compute_t_set,
    flip_pairing,
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
    d_power_expansion,
    decompose_left_a,
    expand_cd,
    parse_cd_monomial,
)
from .orders import ReflectionOrder, dihedral_violation, lex_order, order_from_reduced_word
from .perms import (
    Perm,
    Reflection,
    all_reflections,
    bruhat_leq,
    compose,
    edge_reflection,
    format_perm,
    identity,
    inverse,
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
