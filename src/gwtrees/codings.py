"""Lossless conversions between a plane tree and its three path codings.

A tree is stored as its preorder degree sequence (child counts in depth-first
visit order), which makes every transform an O(zeta) array pass:

* walk (Lukasiewicz path): W_0 = 0, W_{i+1} = W_i + c_i - 1, ends at -1;
* height sequence: H_i = depth of the i-th preorder vertex;
* contour: depth profile of the unit-speed boundary traversal, 2*(zeta-1)+1
  integer-time samples (piecewise linear with slopes +-1 in between).

Heights come from one vectorized pass over the walk: Le Gall's ancestor
identity (k < i is an ancestor of i iff i < k + subtree size of k) turned into
interval counting after one sort of the (level, index) keys; see _height_kernel.
A Tree computes its heights once and its height, contour and visit-time
codings share them. The contour is the cumulative sum of its +-1 steps, the
up steps being the first visits that visit_times returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Tree",
    "LukasiewiczPath",
    "HeightSeq",
    "ContourSeq",
    "walk_from_tree",
    "tree_from_walk",
    "height_from_walk",
    "height_from_tree",
    "contour_from_tree",
    "visit_times",
    "rescale",
]


class CodingError(ValueError):
    """Sequence violates the invariants of the requested coding."""


@dataclass(frozen=True, eq=False)
class Tree:
    """Plane tree as its preorder degree sequence."""

    child_counts: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.ascontiguousarray(self.child_counts, dtype=np.int64)
        object.__setattr__(self, "child_counts", c)
        if c.ndim != 1 or c.size == 0:
            raise CodingError("degree sequence must be a nonempty 1-d array")
        if np.any(c < 0):
            raise CodingError("negative child count")
        partial = np.cumsum(c - 1)
        if partial[-1] != -1 or (c.size > 1 and partial[:-1].min() < 0):
            raise CodingError("not a valid preorder degree sequence")
        c.flags.writeable = False

    @property
    def zeta(self) -> int:
        return self.child_counts.size

    @cached_property
    def heights(self) -> np.ndarray:
        """Read-only H_0..H_{zeta-1}, computed on first use and kept."""
        c = self.child_counts
        levels = np.empty(c.size, dtype=np.int64)
        levels[0] = 0
        np.cumsum(c[:-1] - 1, out=levels[1:])
        h = _height_kernel(levels, c == 0)
        h.flags.writeable = False
        return h

    def __eq__(self, other) -> bool:
        return isinstance(other, Tree) and np.array_equal(
            self.child_counts, other.child_counts
        )

    def __hash__(self) -> int:
        return hash(self.child_counts.tobytes())


@dataclass(frozen=True, eq=False)
class LukasiewiczPath:
    """Integer path W_0..W_zeta: starts at 0, steps >= -1, first hits -1 at zeta."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.ascontiguousarray(self.values, dtype=np.int64)
        object.__setattr__(self, "values", w)
        if w.size < 2 or w[0] != 0 or w[-1] != -1:
            raise CodingError("walk must start at 0 and end at -1")
        if np.diff(w).min() < -1:
            raise CodingError("walk has an increment below -1")
        if w.size > 2 and w[1:-1].min() < 0:
            raise CodingError("walk hits -1 before its final step")
        w.flags.writeable = False


@dataclass(frozen=True, eq=False)
class HeightSeq:
    """H_0..H_{zeta-1}: depth of each preorder vertex."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        h = np.ascontiguousarray(self.values, dtype=np.int64)
        object.__setattr__(self, "values", h)
        if h.size == 0 or h[0] != 0 or np.any(h < 0):
            raise CodingError("height sequence must start at 0 and stay >= 0")
        if h.size > 1 and np.diff(h).max() > 1:
            raise CodingError("height climbs by more than 1")
        h.flags.writeable = False


@dataclass(frozen=True, eq=False)
class ContourSeq:
    """Integer-time contour samples C_0..C_{2(zeta-1)}; a single 0 for zeta = 1.

    The continuous contour is the linear interpolation (slopes +-1) and is 0 on
    [2(zeta-1), 2*zeta] by convention.
    """

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.ascontiguousarray(self.values, dtype=np.int64)
        object.__setattr__(self, "values", c)
        if c.size % 2 == 0:
            raise CodingError("contour sample count must be odd (2*(zeta-1)+1)")
        if c[0] != 0 or c[-1] != 0 or np.any(c < 0):
            raise CodingError("contour must start and end at 0 and stay >= 0")
        if c.size > 1 and not np.all(np.abs(np.diff(c)) == 1):
            raise CodingError("contour steps must be +-1")
        c.flags.writeable = False


# -- transforms -------------------------------------------------------------------


def _height_kernel(levels: np.ndarray, leaf: np.ndarray) -> np.ndarray:
    """H_0..H_{zeta-1} from the walk levels W_0..W_{zeta-1} and the leaf mask.

    Le Gall's ancestor identity: k < i is an ancestor of i iff i < r_k, where
    r_k = k + (subtree size of k) is the first time after k at which W = W_k - 1.
    As W steps down by exactly 1, r_k - 1 is the first leaf j >= k with W_j = W_k.
    Sorted (level, index) keys list each level's vertices in preorder, each
    level ending in a leaf; the vertices k with r_k = j + 1 are then the run
    that ends at leaf j, and H_i = i - #{k : r_k <= i}.

    ``levels`` must be a fresh int64 array: it is overwritten.
    """
    zeta = levels.size
    shift = zeta.bit_length()  # index < 2**shift
    order = levels
    order <<= shift
    order += np.arange(zeta, dtype=np.int64)
    order.sort()
    order &= (1 << shift) - 1  # preorder indices, grouped by level
    ends = np.flatnonzero(leaf[order])
    leaves = order[ends]
    del order, levels
    closed = np.zeros(zeta + 1, dtype=np.int64)  # closed[j] = #{k : r_k = j}
    closed[1:][leaves] = np.diff(ends, prepend=-1)
    del leaves, ends
    np.cumsum(closed, out=closed)
    h = np.arange(zeta, dtype=np.int64)
    h -= closed[:zeta]
    return h


def walk_from_tree(tree: Tree) -> LukasiewiczPath:
    """Partial sums of (child count - 1), prefixed with W_0 = 0."""
    w = np.empty(tree.zeta + 1, dtype=np.int64)
    w[0] = 0
    np.cumsum(tree.child_counts - 1, out=w[1:])
    return LukasiewiczPath(w)


def tree_from_walk(walk: LukasiewiczPath) -> Tree:
    """Inverse map: child_counts[i] = W_{i+1} - W_i + 1."""
    return Tree(np.diff(walk.values) + 1)


def height_from_walk(walk: LukasiewiczPath) -> HeightSeq:
    """Heights from the walk alone, via Le Gall's ancestor identity (see _height_kernel)."""
    w = walk.values
    return HeightSeq(_height_kernel(w[:-1].copy(), np.diff(w) == -1))


def height_from_tree(tree: Tree) -> HeightSeq:
    """Heights of the degree sequence, shared with the tree's other codings."""
    return HeightSeq(tree.heights)


def contour_from_tree(tree: Tree) -> ContourSeq:
    """Euler-tour depth samples at integer times.

    Every step is -1 except the step up into each non-root vertex p at its
    first visit b_p (see visit_times): between visits p and p+1 the contour
    descends from H_p to H_{p+1} - 1, and after the last vertex it descends to 0.
    """
    c = np.full(2 * tree.zeta - 1, -1, dtype=np.int64)
    c[0] = 0
    c[visit_times(tree)[1:-1]] = 1
    np.cumsum(c, out=c)
    return ContourSeq(c)


def visit_times(tree: Tree) -> np.ndarray:
    """b_p = 2p - H_p for p < zeta, plus b_zeta = 2*(zeta-1); C_{b_p} = H_p."""
    b = np.arange(0, 2 * tree.zeta + 1, 2, dtype=np.int64)
    b[:-1] -= tree.heights
    b[-1] = 2 * (tree.zeta - 1)
    return b


# -- rescaling ---------------------------------------------------------------------


def _interp(v: np.ndarray, knots: int, x: np.ndarray) -> np.ndarray:
    """np.interp(x, arange(knots), v zero-padded to knots, right=0.0) for x >= 0, with
    np.interp's arithmetic but reading only the two neighbours of each x."""
    i = np.minimum(np.floor(x), knots - 1).astype(np.int64)
    lo, hi = (np.where(k < v.size, v[np.minimum(k, v.size - 1)], 0).astype(np.float64)
              for k in (i, i + 1))
    return np.where(x <= knots - 1, (hi - lo) * (x - i) + lo, 0.0)


def rescale(path, n: int, b_n: float, grid_points: int) -> tuple[np.ndarray, np.ndarray]:
    """(t, values): the coding rescaled on the uniform grid t of [0,1]; path's type names it.

    walk:    t -> W_{floor(n t)} / B_n            (cadlag step evaluation)
    height:  t -> (B_n / n) * H_{n t}             (linear interpolation, 0-padded)
    contour: t -> (B_n / n) * C_{2 n t}           (linear interpolation, 0-padded)

    Costs O(grid_points): only the path entries next to grid points are read.
    """
    if grid_points < 2:
        raise CodingError("grid_points must be >= 2")
    if not isinstance(path, (LukasiewiczPath, HeightSeq, ContourSeq)):
        raise CodingError(f"cannot infer coding for {type(path).__name__}")
    t = np.linspace(0.0, 1.0, grid_points)
    v = path.values
    if isinstance(path, LukasiewiczPath):
        idx = np.floor(n * t).astype(np.int64)
        vals = np.where(idx < v.size, v[np.minimum(idx, v.size - 1)], 0) / b_n  # W_k = 0, k > zeta
    elif isinstance(path, HeightSeq):
        vals = _interp(v, v.size + 1, n * t) * (b_n / n)  # sentinel H_zeta = 0
    else:
        vals = _interp(v, v.size, 2.0 * n * t) * (b_n / n)
    return t, vals
