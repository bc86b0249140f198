import math

import numpy as np
import pytest

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
