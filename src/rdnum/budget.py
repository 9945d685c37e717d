"""Node budgets for the exact backtracking searches.

A Budget is a mutable allowance of search nodes that can be threaded through
several sub-searches of one logical operation, so that "how much work may
this call do" is a single number controlled by the caller.
"""

from __future__ import annotations

from .errors import ParameterError, Undecided

DEFAULT_NODE_BUDGET = 10**8


class Budget:
    """Counts backtracking nodes and raises Undecided when the limit is hit."""

    __slots__ = ("limit", "spent")

    def __init__(self, nodes: int = DEFAULT_NODE_BUDGET):
        if nodes <= 0:
            raise ParameterError("budget must be a positive node count")
        self.limit = nodes
        self.spent = 0

    def spend(self, amount: int = 1) -> None:
        self.spent += amount
        if self.spent > self.limit:
            raise Undecided(f"search budget of {self.limit} nodes exhausted")

    @property
    def remaining(self) -> int:
        return max(0, self.limit - self.spent)


def as_budget(budget: Budget | int | None) -> Budget:
    """Coerce an int or None into a Budget (None means the default limit)."""
    if budget is None:
        return Budget()
    if isinstance(budget, Budget):
        return budget
    return Budget(budget)


def _kept(owner, key, budget: Budget, search):
    """search(), the exact search on `owner` that `key` names, run once per
    object.

    Its outcome is kept on `owner` with the nodes it spent: a later call
    whose budget has that many nodes left is charged them and gets the
    outcome, which is what searching again would give, and any other call
    searches.  A search that runs out of budget raises Undecided and keeps
    nothing.  Only outcomes of searches are kept: `structural_class` keeps
    the verdict of the cheap χ′ tests on the Graph apart.  The store lives
    as long as `owner`, so a rebuilt equal object searches again."""
    kept = vars(owner).setdefault("_searched", {})
    known = kept.get(key)
    if known is not None and known[1] <= budget.remaining:
        budget.spent += known[1]
        return known[0]
    before = budget.spent
    out = search()
    kept[key] = (out, budget.spent - before)
    return out
