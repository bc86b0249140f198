import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genensemble.bregman import (NEGENTROPY, SQUARED, BregmanSpec, DomainError,
                                 central_prediction, check_total_variance, divergence,
                                 dual, dual_average, dual_inverse)

SQ1 = BregmanSpec(SQUARED, 1)
NE2 = BregmanSpec(NEGENTROPY, 2)


def random_simplex(rng, n, d=2):
    raw = rng.gamma(1.0, size=(n, d))
    return raw / raw.sum(axis=1, keepdims=True)


class TestDivergence:
    def test_squared_is_squared_error(self):
        assert divergence(SQ1, [3.0], [1.0]) == pytest.approx(4.0)

    def test_negentropy_identity_case(self):
        assert divergence(NE2, [0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.0, abs=1e-15)

    def test_negentropy_boundary_clamped_to_cross_entropy(self):
        # KL((1,0) || (0.5,0.5)) after clamping equals ln 2 up to clamp effects
        val = divergence(NE2, [1.0, 0.0], [0.5, 0.5])
        assert val == pytest.approx(math.log(2.0), abs=1e-10)

    def test_domain_violations(self):
        with pytest.raises(DomainError):
            divergence(NE2, [0.7, 0.7], [0.5, 0.5])
        with pytest.raises(DomainError):
            divergence(NE2, [-0.2, 1.2], [0.5, 0.5])

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(4)
        for spec, sampler in ((BregmanSpec(SQUARED, 3),
                               lambda: rng.normal(size=(2, 3))),
                              (NE2, lambda: random_simplex(rng, 2))):
            for _ in range(200):
                y, g = sampler()
                assert divergence(spec, y, g) >= 0.0
                assert divergence(spec, y, y) == pytest.approx(0.0, abs=1e-12)
                if np.max(np.abs(y - g)) > 1e-6:
                    assert divergence(spec, y, g) > 0.0


class TestInputChecks:
    @pytest.mark.parametrize("dimension, message", [
        (1.5, "dimension must be an integer, got 1.5"),
        (True, "dimension must be an integer, got True"),
        (0, "dimension must be >= 1"),
    ])
    def test_dimension_is_a_count(self, dimension, message):
        with pytest.raises(ValueError, match=message):
            BregmanSpec(SQUARED, dimension)

    def test_numpy_dimension_is_stored_as_int(self):
        spec = BregmanSpec(NEGENTROPY, np.int64(2))
        assert type(spec.dimension) is int and spec == NE2

    @pytest.mark.parametrize("spec", [SQ1, NE2], ids=["squared", "negentropy"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_are_refused(self, spec, bad):
        point = [bad] if spec is SQ1 else [bad, 1.0]
        good = [1.0] if spec is SQ1 else [0.5, 0.5]
        for call in (lambda: divergence(spec, point, good), lambda: divergence(spec, good, point),
                     lambda: dual(spec, point), lambda: dual_inverse(spec, point),
                     lambda: dual_average(spec, [good, point]),
                     lambda: central_prediction(spec, [good, point])):
            with pytest.raises(DomainError, match="inputs must be finite"):
                call()

    @pytest.mark.parametrize("weights", [
        [0.0, 0.0], [-1.0, 2.0], [math.nan, 1.0], [math.inf, 1.0], [1.0], [1.0, 1.0, 1.0],
        [[0.5, 0.5]], [1e308, 1e308]])
    def test_bad_weights_are_refused(self, weights):
        # zero weights gave a NaN central prediction and negative ones a bogus one
        with pytest.raises(ValueError, match="weights must be one finite, non-negative"):
            central_prediction(NE2, [[0.3, 0.7], [0.6, 0.4]], weights=weights)

    def test_weights_keep_their_bits(self):
        samples = np.array([[0.3, 0.7], [0.6, 0.4], [0.5, 0.5]])
        weights = np.array([1.0, 0.0, 3.0])
        stats = central_prediction(NE2, samples, weights=weights)
        w = weights / weights.sum()
        central = dual_inverse(NE2, np.tensordot(w, dual(NE2, samples), axes=1))
        assert stats.central.tobytes() == central.tobytes()
        assert stats.gvar == float(w @ divergence(NE2, central, samples))


def _reference_central(spec, samples, weights=None):
    """central_prediction composed from the public maps, each of which checks
    its own input."""
    duals = dual(spec, samples)
    if weights is None:
        central = dual_inverse(spec, duals.mean(axis=0))
        return central, float(np.mean(divergence(spec, central, samples)))
    weights = weights / weights.sum()
    central = dual_inverse(spec, np.tensordot(weights, duals, axes=1))
    return central, float(weights @ divergence(spec, central, samples))


def _reference_total_variance(spec, groups):
    sizes = np.array([g.shape[0] for g in groups], dtype=np.float64)
    weights = sizes / sizes.sum()
    lhs = _reference_central(spec, np.concatenate(groups, axis=0))[1]
    within = [_reference_central(spec, g) for g in groups]
    between = _reference_central(spec, np.asarray([c for c, _ in within]), weights)[1]
    rhs = float(weights @ np.array([v for _, v in within])) + between
    return lhs, rhs, lhs - rhs


def _points(rng, spec, shape):
    """Points of spec's domain: under negentropy, simplex points with exact
    zeros, tiny negative zeros and row sums off by up to 1e-7, all within the check's
    tolerance; under the squared potential, normals of a random scale."""
    shape = shape + (spec.dimension,)
    if spec.kind == SQUARED:
        return rng.normal(size=shape) * 10.0 ** rng.integers(-3, 7)
    p = rng.gamma(0.5, size=shape)
    p[rng.random(shape) < 0.2] = 0.0
    p[..., 0] += 1e-9                     # no all-zero row
    p /= p.sum(axis=-1, keepdims=True)
    p[(p == 0.0) & (rng.random(shape) < 0.5)] = -1e-13
    return p * (1.0 + rng.uniform(-1e-7, 1e-7, size=shape[:-1] + (1,)))


class TestChecksOnceProperty:
    """Each public function checks its inputs once and then runs the private
    kernels; its bytes are those of the composition of the public maps."""

    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from([SQUARED, NEGENTROPY]), dimension=st.integers(1, 10),
           sizes=st.lists(st.integers(1, 6), min_size=2, max_size=4),
           point=st.sampled_from([(), (3,)]), weighted=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_bytes_match_the_public_composition(self, kind, dimension, sizes, point, weighted,
                                                seed):
        # a weighted sample and the groups are (n, d); a stack may carry a
        # point shape (n, 3, d), which weights and groups do not support
        spec = BregmanSpec(kind, dimension)
        rng = np.random.default_rng(seed)
        stack = _points(rng, spec, (sizes[0],) + point)
        got = dual_average(spec, stack)
        assert got.tobytes() == dual_inverse(spec, dual(spec, stack).mean(axis=0)).tobytes()

        groups = [_points(rng, spec, (n,)) for n in sizes]
        samples, weights = (groups[0], rng.uniform(size=sizes[0])) if weighted else (stack, None)
        if weighted:
            weights[rng.random(sizes[0]) < 0.3] = 0.0
            weights[0] += 0.5                     # a positive sum
        stats = central_prediction(spec, samples, weights=weights)
        central, gvar = _reference_central(spec, samples, weights)
        assert stats.central.tobytes() == central.tobytes()
        assert np.float64(stats.gvar).tobytes() == np.float64(gvar).tobytes()

        got = np.array(check_total_variance(spec, groups))
        assert got.tobytes() == np.array(_reference_total_variance(spec, groups)).tobytes()

    @pytest.mark.parametrize("spec, fault", [
        (SQ1, "nan"), (SQ1, "inf"), (SQ1, "dimension"),
        (NE2, "nan"), (NE2, "inf"), (NE2, "dimension"), (NE2, "simplex")])
    def test_every_public_function_refuses_a_bad_point(self, spec, fault):
        good = [1.0] if spec is SQ1 else [0.5, 0.5]
        bad, message = {
            "nan": ([math.nan] + good[1:], "inputs must be finite"),
            "inf": ([math.inf] + good[1:], "inputs must be finite"),
            "dimension": (good + [0.0], f"expected dimension {spec.dimension}, got shape"),
            "simplex": ([0.7, 0.7], "negentropy inputs must lie on the probability simplex"),
        }[fault]
        stack = [bad, bad] if fault == "dimension" else [good, bad]
        calls = [lambda: divergence(spec, bad, good), lambda: divergence(spec, good, bad),
                 lambda: dual(spec, bad), lambda: dual_average(spec, stack),
                 lambda: central_prediction(spec, stack),
                 lambda: central_prediction(spec, stack, weights=[1.0, 2.0]),
                 lambda: check_total_variance(spec, [stack[:1], stack[1:]])]
        if fault != "simplex":                   # duals are unconstrained
            calls.append(lambda: dual_inverse(spec, bad))
        for call in calls:
            with pytest.raises(DomainError, match=message):
                call()


class TestDualMaps:
    def test_squared_linear_maps(self):
        np.testing.assert_allclose(dual(SQ1, [3.0]), [6.0])
        np.testing.assert_allclose(dual_inverse(SQ1, [6.0]), [3.0])

    def test_negentropy_round_trip(self):
        g = np.array([0.2, 0.8])
        np.testing.assert_allclose(dual_inverse(NE2, dual(NE2, g)), g, atol=1e-10)

    def test_round_trip_thousand_random_points(self):
        rng = np.random.default_rng(7)
        pts = random_simplex(rng, 1000, d=3)
        spec = BregmanSpec(NEGENTROPY, 3)
        back = dual_inverse(spec, dual(spec, pts))
        assert np.max(np.abs(back - pts)) < 1e-10
        sq = BregmanSpec(SQUARED, 3)
        vals = rng.normal(size=(1000, 3))
        np.testing.assert_allclose(dual_inverse(sq, dual(sq, vals)), vals, atol=1e-10)


class TestDualAverage:
    def test_single_element(self):
        np.testing.assert_allclose(dual_average(NE2, [[0.3, 0.7]]), [0.3, 0.7],
                                   atol=1e-12)

    def test_squared_mean(self):
        np.testing.assert_allclose(dual_average(SQ1, [[1.0], [3.0]]), [2.0])

    def test_negentropy_symmetric_pair(self):
        out = dual_average(NE2, [[0.8, 0.2], [0.2, 0.8]])
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)

    def test_negentropy_geometric_mean_example(self):
        out = dual_average(NE2, [[0.9, 0.1], [0.5, 0.5]])
        np.testing.assert_allclose(out, [0.75, 0.25], atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dual_average(NE2, np.zeros((0, 2)))


class TestCentralPrediction:
    def test_identical_samples_zero_variance(self):
        stats = central_prediction(NE2, [[0.4, 0.6]] * 5)
        np.testing.assert_allclose(stats.central, [0.4, 0.6], atol=1e-12)
        assert stats.gvar == pytest.approx(0.0, abs=1e-12)

    def test_squared_mean_and_variance(self):
        stats = central_prediction(SQ1, [[0.0], [2.0]])
        np.testing.assert_allclose(stats.central, [1.0])
        assert stats.gvar == pytest.approx(1.0)

    def test_negentropy_example_against_direct_evaluation(self):
        samples = np.array([[0.9, 0.1], [0.5, 0.5]])
        stats = central_prediction(NE2, samples)
        np.testing.assert_allclose(stats.central, [0.75, 0.25], atol=1e-12)
        def kl(a, b):
            return float(np.sum(a * np.log(a / b)))
        expected = 0.5 * (kl(stats.central, samples[0]) + kl(stats.central, samples[1]))
        assert stats.gvar == pytest.approx(expected, abs=1e-12)

    def test_central_solves_argmin_on_grid(self):
        # cross-check the dual-mean identity against the argmin definition
        rng = np.random.default_rng(1)
        samples = random_simplex(rng, 6)
        stats = central_prediction(NE2, samples)
        zs = np.linspace(1e-4, 1 - 1e-4, 2001)
        grid = np.column_stack([zs, 1 - zs])
        objective = np.array([np.mean(divergence(NE2, z, samples)) for z in grid])
        best = grid[np.argmin(objective)]
        assert abs(best[0] - stats.central[0]) < 1e-3


class TestTotalVarianceLaw:
    def test_one_sample_per_group(self):
        groups = [[[0.3, 0.7]], [[0.6, 0.4]], [[0.5, 0.5]]]
        lhs, rhs, gap = check_total_variance(NE2, groups)
        assert abs(gap) < 1e-12
        # within-variance term vanishes, so lhs equals the between term alone
        assert lhs == pytest.approx(rhs)

    def test_all_identical(self):
        groups = [[[0.4, 0.6]] * 3, [[0.4, 0.6]] * 2]
        lhs, rhs, gap = check_total_variance(NE2, groups)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_random_groups_gap_vanishes(self):
        rng = np.random.default_rng(9)
        for spec, sampler in ((NE2, lambda n: random_simplex(rng, n)),
                              (BregmanSpec(SQUARED, 2),
                               lambda n: rng.normal(size=(n, 2)))):
            for _ in range(20):
                groups = [sampler(int(rng.integers(1, 8))) for _ in range(3)]
                lhs, rhs, gap = check_total_variance(spec, groups)
                assert abs(gap) <= 1e-9

    def test_needs_two_groups(self):
        with pytest.raises(ValueError):
            check_total_variance(NE2, [[[0.5, 0.5]]])


class TestDualAveragingLemma:
    def test_central_preserved_under_permuted_replicates(self):
        # groups that are permutations of one multiset share a dual average,
        # so the central of the group averages equals the central of the members
        rng = np.random.default_rng(3)
        base = random_simplex(rng, 5)
        perms = [base[rng.permutation(5)] for _ in range(4)]
        group_averages = np.array([dual_average(NE2, g) for g in perms])
        central_of_averages = central_prediction(NE2, group_averages).central
        central_of_members = central_prediction(NE2, base).central
        np.testing.assert_allclose(central_of_averages, central_of_members, atol=1e-12)

    def test_generalized_variance_contracts_under_dual_averaging(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            members = random_simplex(rng, 30)
            groups = members.reshape(10, 3, 2)
            averaged = np.array([dual_average(NE2, g) for g in groups])
            assert (central_prediction(NE2, averaged).gvar
                    <= central_prediction(NE2, members).gvar + 1e-12)
