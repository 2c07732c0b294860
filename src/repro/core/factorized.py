"""Exporting the dynamic structure as a factorized representation.

Section 3 of the paper remarks that every q-tree is an *f-tree* in the
sense of Olteanu and Závodný [31], and that "the dynamic data structure
that is computed by our algorithm can be viewed as an f-representation
of the query result".  This module makes that observation concrete: it
walks the fit lists of a :class:`ComponentStructure` and materialises
the corresponding factorized expression

    ⋃_{item ∈ L_start} ⟨x := a⟩ × ( ⋃_{child items} ... ) × ...

restricted to the free variables (quantified subtrees contribute only
their existence, which the fit flags already certify).

The export is useful in three ways:

* it documents the paper's f-representation claim executably — the
  expression's ``enumerate()`` / ``count()`` agree with the engine;
* ``size()`` vs ``flat_size()`` measures the succinctness factorisation
  buys (can be exponential in the number of q-tree branches);
* the expression is a plain immutable tree, safe to hand to downstream
  code while the engine keeps updating.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.items import Item
from repro.core.structure import ComponentStructure
from repro.storage.database import Constant, Row

__all__ = ["FactorizedExpression", "ValueNode", "UnionNode", "ProductNode", "factorize"]


class FactorizedExpression:
    """Base class for nodes of the exported f-representation."""

    __slots__ = ()

    def count(self) -> int:
        """Number of distinct tuples represented (no materialisation)."""
        raise NotImplementedError

    def size(self) -> int:
        """Number of value singletons in the expression (its length)."""
        raise NotImplementedError

    def assignments(self) -> Iterator[Dict[str, Constant]]:
        """Stream the represented assignments (free variables only)."""
        raise NotImplementedError

    def render(self, indent: str = "") -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.render()


class ValueNode(FactorizedExpression):
    """A singleton ``⟨var := value⟩``, possibly with a product below."""

    __slots__ = ("var", "value", "below")

    def __init__(
        self, var: str, value: Constant, below: Optional["ProductNode"]
    ):
        self.var = var
        self.value = value
        self.below = below

    def count(self) -> int:
        return self.below.count() if self.below is not None else 1

    def size(self) -> int:
        below = self.below.size() if self.below is not None else 0
        return 1 + below

    def assignments(self) -> Iterator[Dict[str, Constant]]:
        if self.below is None:
            yield {self.var: self.value}
            return
        for rest in self.below.assignments():
            rest[self.var] = self.value
            yield rest

    def render(self, indent: str = "") -> str:
        head = f"{indent}⟨{self.var}={self.value!r}⟩"
        if self.below is None:
            return head
        return head + "\n" + self.below.render(indent + "  ")


class UnionNode(FactorizedExpression):
    """A union of sibling value singletons (one fit list)."""

    __slots__ = ("children",)

    def __init__(self, children: Sequence[ValueNode]):
        self.children = tuple(children)

    def count(self) -> int:
        return sum(child.count() for child in self.children)

    def size(self) -> int:
        return sum(child.size() for child in self.children)

    def assignments(self) -> Iterator[Dict[str, Constant]]:
        for child in self.children:
            yield from child.assignments()

    def render(self, indent: str = "") -> str:
        return "\n".join(child.render(indent) for child in self.children)


class ProductNode(FactorizedExpression):
    """A product of unions over independent child branches."""

    __slots__ = ("factors",)

    def __init__(self, factors: Sequence[UnionNode]):
        self.factors = tuple(factors)

    def count(self) -> int:
        total = 1
        for factor in self.factors:
            total *= factor.count()
        return total

    def size(self) -> int:
        return sum(factor.size() for factor in self.factors)

    def assignments(self) -> Iterator[Dict[str, Constant]]:
        def recurse(index: int) -> Iterator[Dict[str, Constant]]:
            if index == len(self.factors):
                yield {}
                return
            for left in self.factors[index].assignments():
                for right in recurse(index + 1):
                    merged = dict(left)
                    merged.update(right)
                    yield merged

        yield from recurse(0)

    def render(self, indent: str = "") -> str:
        if len(self.factors) == 1:
            return self.factors[0].render(indent)
        blocks = [factor.render(indent + "  ") for factor in self.factors]
        separator = f"\n{indent}×\n"
        return separator.join(blocks)


def _product_below(
    structure: ComponentStructure, item: Item
) -> Optional[ProductNode]:
    """The factor for the free children of a fit item (None for leaves
    of the free subtree)."""
    free_children = [
        child
        for child in structure.qtree.children.get(item.node, ())
        if child in structure.query.free_set
    ]
    if not free_children:
        return None
    factors = []
    for child in free_children:
        fit_list = item.fit_list(child)
        members = list(fit_list) if fit_list is not None else []
        factors.append(
            UnionNode(
                [
                    ValueNode(
                        child,
                        member.constant,
                        _product_below(structure, member),
                    )
                    for member in members
                ]
            )
        )
    return ProductNode(factors)


def factorize(structure: ComponentStructure) -> FactorizedExpression:
    """Export the current result as a factorized expression.

    For a Boolean component the result is an empty product (count 1)
    when satisfied and an empty union (count 0) otherwise.
    """
    if not structure.query.free:
        if structure.c_start > 0:
            return ProductNode(())
        return UnionNode(())

    roots = [
        ValueNode(
            item.node, item.constant, _product_below(structure, item)
        )
        for item in structure.start
    ]
    return UnionNode(roots)


def flat_size(structure: ComponentStructure) -> int:
    """Length of the flat (unfactorised) listing: |result| · k."""
    return structure.count() * max(len(structure.query.free), 1)


def compression_ratio(structure: ComponentStructure) -> float:
    """Flat size over factorized size (≥ 1; higher = more succinct)."""
    expression = factorize(structure)
    size = expression.size()
    if size == 0:
        return 1.0
    return flat_size(structure) / size
