"""qfgl: exact computer algebra for a q-deformed formal group law.

Modules cover exact scalar arithmetic over Q(s) with q = s**2, truncated
power series, Moebius actions, the group law itself, q-series
combinatorics, lambda-ring operations and Hodge/representation-ring
checks on products of projective spaces.  Everything is exact; no
floating point is used anywhere.
"""

from .scalar import (
    Scalar,
    RingMembership,
    ZERO,
    ONE,
    Q,
    S,
    cyclotomic,
    membership,
    is_cromulent,
    eval_q0,
    eval_q1,
    canonical_str,
)
from .series import (
    Series,
    BiSeries,
    compose,
    reverse,
    log1,
    exp0,
    pow_formal,
    pow_bivariate,
)
from .mobius import (
    Mobius,
    mob_mul,
    mob_det,
    mob_apply,
    mob_apply_scalar,
    identity,
    scalar_matrix,
    q_mobius,
    q_mobius_inv,
)
from .fgl import (
    FormalGroupLaw,
    qmob_series,
    log_chi,
    exp_chi,
    f_chi_closed,
    f_chi_from_log,
    f_chi_derived_closed,
    proposition_check,
    multiplicative_law,
    verify_fgl,
    drinfeld_form,
    cp_image,
    fgl_inverse,
    fgl_eval,
    cartier_check,
)
from .qcomb import (
    QSeries,
    q_int,
    q_fact,
    q_binom,
    poch_finite,
    poch_inf_product,
    poch_inf_sum,
    euler_phi,
    discriminant,
    EtaElement,
    eta_from_phi,
    eta_mul,
    eta_inv,
    eta_pow,
)
from .lambda_ring import (
    WittElement,
    adams,
    lambda_t,
    negate_t,
    witt_add,
    witt_neg,
    witt_ghost,
    newton_adams_from_lambda,
    lambda_k_closed,
    LambdaKReport,
    elementary_symmetric_oracle,
    thom_class,
    discriminant_limit,
)
from .varieties import (
    Variety,
    HodgePoly,
    SL2Rep,
    hodge,
    euler_specialize,
    yz_to_q,
    rep_of_variety,
    cg_tensor,
    character,
    decompose_character,
    qdim_normalized,
    lambda_rep,
    diagram_check,
    load_catalog,
)
from .report import Check, VerificationReport
from .expr import Expr, parse_expr, eval_expr, evaluate, ParseError, EvalError

__version__ = "0.1.0"
