"""Trees of elementary transformations.

A tree is rooted at an ambient signature; every edge carries one elementary
transformation, so each leaf determines a chain nu_1 o ... o nu_N (root to
leaf).  Engines attach their results to leaf payloads; branch enumeration
and serialization operate on these trees.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .series import Series, Signature
from .transforms import (
    _json_field,
    _json_signature,
    _of_type,
    INF,
    NEG_INF,
    ElementaryTransform,
    TransformError,
    chain_sigs,
    transform_from_json,
)


@dataclass
class TreeNode:
    """One node; ``transform`` is the edge from the parent (None at the root).

    ``payload`` holds the engine's result at a leaf, as JSON.  ``series`` is
    the engine's own series at a leaf, the one it found normal or zero there
    (None on inner nodes and on trees read back from JSON); it is not
    serialised, compared or shown.  Only the engine writes the two: it sets
    them where it stops at a leaf and clears them on a node it grows."""

    transform: Optional[ElementaryTransform] = None
    children: list["TreeNode"] = field(default_factory=list)
    payload: dict = field(default_factory=dict)
    series: Optional[Series] = field(default=None, compare=False, repr=False)

    def is_leaf(self) -> bool:
        return not self.children

    def add_child(self, transform: ElementaryTransform) -> "TreeNode":
        child = TreeNode(transform=transform)
        self.children.append(child)
        return child


@dataclass
class AdmissibleTree:
    sig: Signature
    root: TreeNode = field(default_factory=TreeNode)

    def branches(self) -> Iterator[tuple[list[ElementaryTransform], TreeNode]]:
        """Depth-first, left-to-right enumeration of (chain, leaf) pairs, by
        an explicit-stack walk."""
        stack = [(self.root, [])]
        while stack:
            node, chain = stack.pop()
            if node.transform is not None:
                chain = chain + [node.transform]
            if node.is_leaf():
                yield chain, node
            stack.extend((c, chain) for c in reversed(node.children))

    def leaves(self) -> list[TreeNode]:
        return [leaf for _, leaf in self.branches()]

    def height(self) -> int:
        """Edges on the longest root-to-leaf path, by an explicit-stack walk."""
        best = 0
        stack = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            best = max(best, depth)
            stack.extend((c, depth + 1) for c in node.children)
        return best

    def leaf_sig(self, chain: Sequence[ElementaryTransform]) -> Signature:
        return chain_sigs(chain, self.sig)[-1]


# -- lambda palettes ---------------------------------------------------------


@dataclass(frozen=True)
class LambdaPalette:
    """Finite parameter sets used when spawning a blow-up chart family.

    ``positive`` lists the finite nonzero magnitudes; charts over a y-source
    (parameter ranging over all of Q) also get the mirrored negatives.  Every
    entry must be a positive rational (``int`` or ``Fraction``), checked in
    the order given; they are kept as distinct ``Fraction``s, sorted."""

    positive: tuple = (Fraction(1, 2), Fraction(1), Fraction(2))

    def __post_init__(self):
        for v in self.positive:
            if not isinstance(v, numbers.Rational):
                raise ValueError(f"palette entries must be rationals, got {v!r}")
            if v <= 0:
                raise ValueError(f"palette entries must be positive, got {v}")
        object.__setattr__(self, "positive", tuple(sorted(set(map(Fraction, self.positive)))))

    def nonneg(self, extra: Sequence[Fraction] = ()) -> list:
        """0, the positive palette plus nonnegative extras, then inf."""
        vals = sorted(set(self.positive) | {Fraction(v) for v in extra if Fraction(v) > 0})
        return [Fraction(0)] + vals + [INF]

    def signed(self, extra: Sequence[Fraction] = ()) -> list:
        """0, +-palette and nonzero extras, then +-inf."""
        vals = sorted({s * v for v in self.positive for s in (1, -1)}
                      | {Fraction(v) for v in extra if Fraction(v) != 0})
        return [Fraction(0)] + vals + [INF, NEG_INF]


DEFAULT_PALETTE = LambdaPalette()


def palette_from_spec(text: str) -> LambdaPalette:
    """Parse a comma-separated list of positive rationals, e.g. "1/2,1,2";
    ``LambdaPalette`` checks that each is positive."""
    vals = tuple(Fraction(piece) for piece in map(str.strip, text.split(",")) if piece)
    if not vals:
        raise ValueError("empty palette")
    return LambdaPalette(vals)


# -- serialization -----------------------------------------------------------


def tree_to_json(tree: AdmissibleTree) -> dict:
    """JSON form of ``tree``, built in pre-order by an explicit-stack walk;
    each node's keys come in the order transform, payload, children."""
    out: list = []
    stack = [(tree.root, out)]
    while stack:
        node, siblings = stack.pop()
        d: dict = {}
        if node.transform is not None:
            d["transform"] = node.transform.to_json()
        if node.payload:
            d["payload"] = node.payload
        if node.children:
            d["children"] = []
            stack.extend((c, d["children"]) for c in reversed(node.children))
        siblings.append(d)
    return {"sig": list(tree.sig), "root": out[0]}


def tree_from_json(data: dict) -> AdmissibleTree:
    """Inverse of ``tree_to_json``, rebuilt in pre-order by an explicit-stack
    walk, so a malformed tree fails at its first bad node; malformed input
    raises ``TransformError`` naming the field."""
    root = _json_field(data, "tree", "root")
    sig = _json_field(data, "tree", "sig", _json_signature)
    out: list = []
    stack = [("root", root, out)]
    while stack:
        name, d, siblings = stack.pop()
        if not isinstance(d, dict):
            raise TransformError(f"tree JSON has a bad {name!r}: {d!r}")
        t = None
        if "transform" in d:
            t = transform_from_json(d["transform"])
        payload = _json_field(d, "tree", "payload", _of_type(dict), {})
        node = TreeNode(transform=t, payload=dict(payload))
        siblings.append(node)
        children = _json_field(d, "tree", "children", _of_type(list), [])
        stack.extend(("children", c, node.children) for c in reversed(children))
    return AdmissibleTree(sig, out[0])
