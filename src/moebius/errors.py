"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all engine errors."""


class ParseError(EngineError):
    """A group spec string failed to parse; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ClosureExceedsCap(EngineError):
    """Generating more elements than the configured group order cap."""

    def __init__(self, cap):
        super().__init__(f"group closure exceeds the order cap {cap}")
        self.cap = cap


class BudgetExceeded(EngineError):
    """An enumeration passed its configured budget; partial results are discarded."""

    def __init__(self, count, budget, what="enumeration"):
        super().__init__(f"{what} exceeded budget: {count} > {budget}")
        self.count = count
        self.budget = budget


class BoundExceeded(EngineError):
    """Group larger than the order bound of the full automorphism search."""


class NotNormal(EngineError):
    """Operation requires a normal subgroup."""


class NotInvariant(EngineError):
    """Operation requires a subgroup invariant under the acting automorphisms."""


class NotAHomomorphism(EngineError):
    """Generator images do not extend to a multiplication-respecting map."""


class NotBijective(EngineError):
    """A candidate automorphism map is not a bijection."""


class LiftNotGenerating(EngineError):
    """The fixed lift tuple does not generate the group modulo N."""


class NotAClosureMap(EngineError):
    """A purported closure map violates one of the closure axioms."""

    def __init__(self, axiom, detail=""):
        super().__init__(f"closure axiom {axiom} violated{': ' + detail if detail else ''}")
        self.axiom = axiom


class ImageNotInLattice(EngineError):
    """An automorphism image of a lattice subgroup is missing: lattice corrupt."""
