import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gwtrees import codings as cod
from gwtrees import (
    derive_rng,
    enumerate_conditioned,
    make_geometric,
    make_stable_family,
    sample_conditioned,
    sample_gw,
)

GEO = make_geometric(0.5)

CHERRY = cod.Tree(np.array([2, 0, 0]))
CHAIN3 = cod.Tree(np.array([1, 1, 0]))
SINGLE = cod.Tree(np.array([0]))


def random_tree(seed, n=None):
    if n is None:
        t = None
        while t is None:
            t = sample_gw(GEO, 4000, rng=derive_rng(seed))
            seed += 1_000_003
        return t
    return sample_conditioned(GEO, n, rng=derive_rng(seed))


# -- oracle: the monotone-stack height passes, one per input coding -------------


def stack_heights_from_walk(w):
    """H_i = #{k < i : W_k = min(W_k..W_i)}: the stack holds the ancestors' levels."""
    zeta = w.size - 1
    h = np.empty(zeta, np.int64)
    stack = []
    for i in range(zeta):
        wi = w[i]
        while stack and stack[-1] > wi:
            stack.pop()
        h[i] = len(stack)
        stack.append(wi)
    return h


def stack_heights_from_counts(c):
    """Depth-first traversal: the stack holds each open ancestor's unvisited children."""
    zeta = c.size
    h = np.empty(zeta, np.int64)
    rem = []
    for i in range(zeta):
        h[i] = len(rem)
        k = c[i]
        if k > 0:
            rem.append(int(k))
        else:
            while rem:
                rem[-1] -= 1
                if rem[-1] == 0:
                    rem.pop()
                else:
                    break
    return h


def euler_tour_contour(c):
    """Depth after each edge traversal of a depth-first walk; the stack holds
    each open vertex's unvisited children."""
    depth, out, nxt = 0, [0], 1
    pending = [int(c[0])]
    while True:
        if pending[-1]:
            pending[-1] -= 1
            pending.append(int(c[nxt]))
            nxt += 1
            depth += 1
        elif len(pending) > 1:
            pending.pop()
            depth -= 1
        else:
            break
        out.append(depth)
    return np.array(out, dtype=np.int64)


def assert_heights_match_oracle(tree):
    walk = cod.walk_from_tree(tree)
    by_tree = cod.height_from_tree(tree).values
    by_walk = cod.height_from_walk(walk).values
    assert np.array_equal(by_tree, stack_heights_from_counts(tree.child_counts))
    assert np.array_equal(by_walk, stack_heights_from_walk(walk.values))
    assert np.array_equal(by_tree, by_walk)


class TestWalk:
    def test_examples(self):
        assert cod.walk_from_tree(SINGLE).values.tolist() == [0, -1]
        assert cod.walk_from_tree(CHERRY).values.tolist() == [0, 1, 0, -1]
        assert cod.walk_from_tree(CHAIN3).values.tolist() == [0, 0, 0, -1]

    def test_inverse_examples(self):
        assert cod.tree_from_walk(cod.LukasiewiczPath(np.array([0, -1]))) == SINGLE
        assert cod.tree_from_walk(cod.LukasiewiczPath(np.array([0, 1, 0, -1]))) == CHERRY

    def test_round_trip_many_random_trees(self):
        # free GW trees of assorted sizes
        for seed in range(500):
            t = random_tree(seed)
            assert cod.tree_from_walk(cod.walk_from_tree(t)) == t
        # plus a large batch of small conditioned ones
        for seed in range(10_000):
            t = sample_conditioned(GEO, 1 + seed % 17, rng=derive_rng(seed))
            assert cod.tree_from_walk(cod.walk_from_tree(t)) == t

    def test_invalid_walks_rejected(self):
        for bad in ([0, 0], [1, 0, -1], [0, -2, -1], [0, -1, 0, -1]):
            with pytest.raises(cod.CodingError):
                cod.LukasiewiczPath(np.array(bad))

    def test_invalid_degree_sequences_rejected(self):
        for bad in ([1], [0, 0], [2, 0], [3, 0, 0]):
            with pytest.raises(cod.CodingError):
                cod.Tree(np.array(bad))


class TestHeights:
    def test_examples(self):
        assert cod.height_from_walk(cod.walk_from_tree(SINGLE)).values.tolist() == [0]
        assert cod.height_from_walk(cod.walk_from_tree(CHERRY)).values.tolist() == [0, 1, 1]
        assert cod.height_from_walk(cod.walk_from_tree(CHAIN3)).values.tolist() == [0, 1, 2]
        assert cod.height_from_tree(CHERRY).values.tolist() == [0, 1, 1]
        assert cod.height_from_tree(CHAIN3).values.tolist() == [0, 1, 2]

    def test_routes_agree_exhaustively_to_8(self):
        # every tree with zeta <= 8 (the enumeration is law-independent): both
        # routes (walk -> heights, degree sequence -> heights) equal the stack
        # oracle, and the walk bijection round-trips
        for n in range(1, 9):
            for tree, _ in enumerate_conditioned(GEO, n):
                assert_heights_match_oracle(tree)
                assert cod.tree_from_walk(cod.walk_from_tree(tree)) == tree

    @given(st.integers(0, 2**48))
    def test_routes_agree_random(self, seed):
        assert_heights_match_oracle(random_tree(seed))

    @pytest.mark.parametrize("family", ["geometric", "stable15"])
    def test_routes_agree_large(self, family, request):
        law = request.getfixturevalue(family)
        assert_heights_match_oracle(sample_conditioned(law, 10**5 + 1, rng=derive_rng(1)))

    def test_heights_cached_read_only(self):
        t = random_tree(3)
        h = cod.height_from_tree(t).values
        assert h is t.heights and cod.height_from_tree(t).values is h
        assert np.array_equal(cod.visit_times(t)[:-1], 2 * np.arange(t.zeta) - h)
        with pytest.raises(ValueError):
            t.heights[0] = 1


class TestContour:
    def test_examples(self):
        assert cod.contour_from_tree(CHERRY).values.tolist() == [0, 1, 0, 1, 0]
        assert cod.contour_from_tree(CHAIN3).values.tolist() == [0, 1, 2, 1, 0]
        assert cod.contour_from_tree(SINGLE).values.tolist() == [0]
        for t in (SINGLE, CHERRY, CHAIN3):
            assert np.array_equal(cod.contour_from_tree(t).values,
                                  euler_tour_contour(t.child_counts))

    def test_visit_times_examples(self):
        assert cod.visit_times(CHERRY).tolist() == [0, 1, 3, 4]
        assert cod.visit_times(CHAIN3).tolist() == [0, 1, 2, 4]

    @given(st.integers(0, 2**48))
    def test_contour_visits_heights(self, seed):
        t = random_tree(seed)
        c = cod.contour_from_tree(t).values
        h = cod.height_from_tree(t).values
        b = cod.visit_times(t)
        assert np.array_equal(c, euler_tour_contour(t.child_counts))
        assert b[-1] == 2 * (t.zeta - 1)
        if t.zeta > 1:
            assert np.array_equal(c[b[:-1]], h)

    @given(st.integers(0, 2**48))
    def test_max_and_root_degree_invariants(self, seed):
        t = random_tree(seed)
        c = cod.contour_from_tree(t).values
        h = cod.height_from_tree(t).values
        assert c.max() == h.max()
        if t.zeta > 1:
            returns = int(np.sum((c[1:] == 0) & (c[:-1] == 1)))
            assert returns == t.child_counts[0]

    @given(st.integers(0, 2**48))
    def test_segment_inequality(self, seed):
        # sup over [b_p, b_{p+1}] of |C - H_p| <= |H_{p+1} - H_p| + 1
        t = random_tree(seed, n=1 + seed % 1000 if seed % 3 else None)
        if t.zeta == 1:
            return
        c = cod.contour_from_tree(t).values
        h = cod.height_from_tree(t).values
        b = cod.visit_times(t)
        seg_max = np.maximum.reduceat(c, b[:-1])
        seg_min = np.minimum.reduceat(c, b[:-1])
        dev = np.maximum(seg_max - h, h - seg_min)
        allowed = np.abs(np.diff(np.concatenate([h, [0]]))) + 1
        assert np.all(dev <= allowed)


class TestRescale:
    def test_constant_zero(self):
        h = cod.HeightSeq(np.array([0]))
        _, values = cod.rescale(h, n=5, b_n=3.0, grid_points=7)
        assert np.all(values == 0.0)

    def test_height_padding_convention(self):
        # time sampling at n*t with H_k = 0 for k >= zeta; values then carry
        # the B_n/n factor
        h = cod.HeightSeq(np.array([0, 1, 1]))
        _, values = cod.rescale(h, n=3, b_n=1.0, grid_points=4)
        assert np.allclose(values * (3 / 1.0), [0, 1, 1, 0])

    def test_contour_interpolation(self):
        c = cod.contour_from_tree(CHERRY)
        _, values = cod.rescale(c, n=3, b_n=1.0, grid_points=9)
        # t = 1/4 evaluates C at 2*3*(1/4) = 1.5, between C_1 = 1 and C_2 = 0
        assert values[2] * (3 / 1.0) == pytest.approx(0.5)

    def test_walk_is_cadlag_step(self):
        w = cod.walk_from_tree(CHERRY)
        _, values = cod.rescale(w, n=3, b_n=2.0, grid_points=4)
        assert np.allclose(values, np.array([0, 1, 0, -1]) / 2.0)

    def test_grid_validation(self):
        with pytest.raises(cod.CodingError):
            cod.rescale(cod.HeightSeq(np.array([0])), n=1, b_n=1.0, grid_points=1)

    def test_uniform_grid_and_finite_values(self):
        for path in (cod.walk_from_tree(CHAIN3), cod.height_from_tree(CHAIN3),
                     cod.contour_from_tree(CHAIN3)):
            t, values = cod.rescale(path, n=3, b_n=1.5, grid_points=5)
            assert np.array_equal(t, np.linspace(0, 1, 5))
            assert values.shape == t.shape and np.all(np.isfinite(values))

    @given(st.integers(0, 2**48), st.sampled_from([2, 3, 64, 512, 1001]))
    def test_equals_full_path_interpolation(self, seed, grid_points):
        # the reference reads the whole path: np.interp over an n-sized grid
        t = random_tree(seed, n=1 + seed % 1000 if seed % 3 else None)
        n, b_n = max(1, t.zeta + seed % 5 - 2), 1.0 + seed % 7  # n off zeta reaches the padding
        grid = np.linspace(0.0, 1.0, grid_points)
        w = cod.walk_from_tree(t).values.astype(np.float64)
        h = cod.height_from_tree(t).values.astype(np.float64)
        c = cod.contour_from_tree(t).values.astype(np.float64)
        idx = np.floor(n * grid).astype(np.int64)
        want_w = np.zeros(grid_points)
        want_w[idx < w.size] = w[idx[idx < w.size]]
        want = {
            "walk": want_w / b_n,
            "height": np.interp(n * grid, np.arange(h.size + 1.0), np.append(h, 0.0),
                                right=0.0) * (b_n / n),
            "contour": np.interp(2.0 * n * grid, np.arange(c.size, dtype=np.float64), c,
                                 right=0.0) * (b_n / n),
        }
        for name, path in (("walk", cod.walk_from_tree(t)), ("height", cod.height_from_tree(t)),
                           ("contour", cod.contour_from_tree(t))):
            got_t, got = cod.rescale(path, n=n, b_n=b_n, grid_points=grid_points)
            assert np.array_equal(got_t, grid)
            assert got.tobytes() == want[name].tobytes()  # bit for bit, signed zeros too

    def test_non_coding_refused(self):
        for bad in (CHAIN3, np.array([0, 1, 0])):
            with pytest.raises(cod.CodingError):
                cod.rescale(bad, n=3, b_n=1.5, grid_points=5)


class TestImmutability:
    def test_arrays_read_only(self):
        t = cod.Tree(np.array([2, 0, 0]))
        with pytest.raises(ValueError):
            t.child_counts[0] = 5
        w = cod.walk_from_tree(t)
        with pytest.raises(ValueError):
            w.values[0] = 7
