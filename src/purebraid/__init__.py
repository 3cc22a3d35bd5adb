"""Exact Coxeter/braid combinatorics: the N-map, Reidemeister-Schreier
presentations of pure braid groups, free-group action models, and the
type-B-into-type-A braid embedding certificate."""

from .coxeter import (
    CoxElem,
    CoxeterError,
    CoxeterSystem,
    Reflection,
    coset_rep,
    exchange_witness,
    is_I_reduced,
    is_spherical,
    load_system,
    longest_element,
    named_system,
    palindromize,
    reflections,
)
from .braid import BraidWord, alternating_word, is_reduced_lift, left_divides, lift
from .nmap import (
    SemidirectElem,
    ZTVector,
    cocycle,
    equal_mod_derived,
    eval_N,
    eval_Np,
    in_image_of_N,
    is_admissible,
    nbar,
    splitting_parity_witness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
