"""Exact engine for Moebius functions on posets of subgroup classes.

Builds finite permutation groups, enumerates their full subgroup
lattices, lets subgroups of Aut(G) act on them, and evaluates the
counting formulas (generating-tuple counts, subgroup-tuple counts,
generation probabilities) and structural identities that live on the
resulting class posets.  All arithmetic is exact (int / Fraction).
"""

__version__ = "0.1.0"

from .errors import (BoundExceeded, BudgetExceeded, ClosureExceedsCap,
                     EngineError, ImageNotInLattice, LiftNotGenerating,
                     NotAClosureMap, NotAHomomorphism, NotBijective,
                     NotInvariant, NotNormal, ParseError)
from .perm import Permutation, parse_cycles
from .groups import (FiniteGroup, Subgroup, build_from_spec, commutator_subgroup,
                     generate_group, is_nilpotent, is_solvable, quotient_group)
from .lattice import SubgroupLattice, enumerate_subgroups
from .automorphisms import (Automorphism, AutomorphismGroup,
                            automorphism_from_images, full_automorphism_group,
                            inner_automorphisms, induced_quotient_action)
from .classposet import ClassPoset, build_class_poset
