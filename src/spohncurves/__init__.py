"""Exact algebro-geometric computations for 2x2 games.

Spohn quadrics and cubics, reducibility classification and decomposition,
elliptic invariants (Aronhold S/T, discriminant, j, Weierstrass models,
Q-isomorphism), Nash/dependency-equilibrium utilities, and continued-fraction
approximation — all over exact rationals.
"""

from .polynomials import (
    DomainError,
    MultiPoly,
    contfrac_approx,
    rat,
    rat_str,
)
from .games import (
    ConditionalPayoffs,
    JointDistribution,
    KonstanzMatrix,
    MixedProfile,
    PayoffTables,
    WitnessReport,
    conditional_payoffs,
    cooperation_witness,
    de_membership,
    is_nash,
    ne_witness_sequence,
    pareto_sweep,
    pure_nash,
    sample_curve_points,
    spohn_determinants,
    totally_mixed_nash,
)
from .geometry import (
    CurveComponent,
    ReducibilityVerdict,
    SpohnCubic,
    build_cubic,
    build_quadrics,
    classify,
    classify_cases,
    decompose_cubic,
    reducibility_verdict,
    zero_cubic_classify,
)
from .elliptic import (
    JResult,
    PlaneCubic,
    QuadricPair,
    WeierstrassCurve,
    cubic_from_quadrics,
    game_equivalence,
    j_invariant,
    jacobian,
    q_isomorphic,
    weierstrass_from_cubic,
)

__version__ = "0.1.0"
