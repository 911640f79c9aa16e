"""Exception hierarchy shared by all nsg modules."""


class NsgError(Exception):
    """Base class for all errors raised by this package."""


class NotCofinite(NsgError):
    """Generators have gcd > 1, so the generated monoid has infinite complement."""


class NotClosed(NsgError):
    """A proposed gap set whose complement is not closed under addition.

    Carries a witness pair (x, y) of non-gaps with x + y a gap.
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(witness)  # the constructor's arguments, so pickling rebuilds it

    def __str__(self):
        w = self.witness
        return f"complement not closed under addition: {w[0]} + {w[1]} = {sum(w)} is a gap"


class NotElement(NsgError):
    """Apery set requested with respect to a non-element."""


class FullSemigroup(NsgError):
    """Operation undefined for the full semigroup of non-negative integers."""


class NotSpecialGap(NsgError):
    """Attempt to adjoin a gap that is not a special gap."""


class NotOversemigroup(NsgError):
    """Second argument does not contain the first."""


class WrongMultiplicity(NsgError):
    """Construction applied to a semigroup of the wrong multiplicity."""


class NotApplicable(NsgError):
    """Shortening move preconditions not met."""


class SearchFailed(NsgError):
    """An oversemigroup search guaranteed by theory came up empty.

    If this ever triggers it is a genuine finding, not a user error.
    """


class OutOfRange(NsgError):
    """Index parameter outside its legal range."""


class UndefinedValue(NsgError):
    """Quantity undefined for the given argument."""


class LimitExceeded(NsgError):
    """Construction would need integers above the hard 2**40 cap."""


class InternalAssertion(NsgError):
    """A postcondition that should be guaranteed by theory failed; a bug."""


class BudgetExceeded(NsgError):
    """An enumeration passed its node budget."""

    def __init__(self, used, limit):
        self.used = used
        self.limit = limit
        super().__init__(used, limit)  # so a sweep worker's error crosses the pool

    def __str__(self):
        return f"enumeration budget exceeded: {self.used} > {self.limit} nodes"
