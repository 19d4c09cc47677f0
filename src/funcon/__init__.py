"""Finite-domain workbench for the Galois connection between B-valued
functions on A and A-to-B relational constraints."""

from .core import (
    ArityMismatchError,
    BudgetExceededError,
    Constraint,
    ConstraintSet,
    DomainMismatchError,
    DomainSpec,
    FunctionClass,
    FunctionTable,
    Relation,
    canonical_constraint,
    enumerate_constraints,
    enumerate_functions,
    projection,
    relaxation_of,
    tuple_rank,
    tuple_unrank,
)
from .satisfaction import (
    cm_m_oracle,
    compose_classes,
    csf,
    csf_m,
    fsc,
    fsc_n,
    fsc_n_of_csf_m,
    image,
    minimal_consequent,
    projections_class,
    satisfies,
)
from .function_closures import (
    SubstitutionMap,
    lo_m_closure,
    substitute,
    vs_closure,
    vs_n_closure,
)
from .minors import (
    Scheme,
    compose_schemes,
    minor_check,
    tight_minor,
)
from .lab import (
    ClosureReport,
    check_closure_laws,
    check_galois_axioms,
    random_constraint_set,
    random_function_class,
    verify_definability,
    verify_factorization,
)
from .instance_io import serialize_instance
from .constraint_closures import (
    CmBounds,
    CmResult,
    cm_closure,
    cm_m_closure,
    lo_n_closure,
    union_closure_check,
)

__version__ = "0.1.0"
