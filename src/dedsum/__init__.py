"""Exact Dedekind sums, continued fractions, and the infinite families of
coprime pairs that attain a prescribed normalized sum value.

The core operations live in submodules (:mod:`dedsum.dedekind`,
:mod:`dedsum.contfrac`, :mod:`dedsum.surd`, :mod:`dedsum.family`,
:mod:`dedsum.search`, :mod:`dedsum.rational`); the most used names are
re-exported here.  ``dedsum.kernel_name()`` names the active kernel.
"""

from ._backend import kernel_name
from .dedekind import (
    CoprimePair,
    dedekind_sum_naive,
    normalized_sum_fast,
    reduce_pair,
)
from .family import (
    FamilyCase,
    FamilyMember,
    FamilyPlan,
    VerificationError,
    iter_members,
    members,
    plan_family,
    verify_member,
    verify_members,
    verify_period_constancy,
)
from .search import SearchResult, search_stream, search_value
from .surd import ConsistencyError, PeriodicSurd, closed_form_value, surd_from_period

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError",
    "CoprimePair",
    "FamilyCase",
    "FamilyMember",
    "FamilyPlan",
    "PeriodicSurd",
    "SearchResult",
    "VerificationError",
    "closed_form_value",
    "dedekind_sum_naive",
    "iter_members",
    "kernel_name",
    "members",
    "normalized_sum_fast",
    "plan_family",
    "reduce_pair",
    "search_stream",
    "search_value",
    "surd_from_period",
    "verify_member",
    "verify_members",
    "verify_period_constancy",
]
