"""Closed-form expectations, differences, variance, bounds, and orderings."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from brierlab.analytic import (
    Ordering,
    PerturbationSpec,
    clt_normal_approx,
    effectiveness_compare,
    expected_bs,
    expected_bs_perfect_single,
    expected_bs_single,
    jensen_bound,
    perfect_bs_lower_bound,
    perturb_difference,
    shift_difference,
    variance_single,
)
from brierlab.errors import DimensionError, ValidationError
from brierlab.oracle import exact_distribution, exact_expected_bs

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

# Each scalar argument of the closed forms, with the name its message gives.
SCALAR_ARGUMENTS = {
    "expected_bs_single-p1": (lambda x: expected_bs_single(x, 0.5), "p1"),
    "expected_bs_single-q1": (lambda x: expected_bs_single(0.5, x), "q1"),
    "expected_bs_perfect_single-q1": (lambda x: expected_bs_perfect_single(x), "q1"),
    "variance_single-p1": (lambda x: variance_single(x, 0.5), "p1"),
    "variance_single-q1": (lambda x: variance_single(0.5, x), "q1"),
    "shift_difference-q1": (lambda x: shift_difference(x, 0.1), "q1"),
    "shift_difference-eps": (lambda x: shift_difference(0.1, x), "epsilon"),
    "perturb_difference-eps": (lambda x: perturb_difference(x), "epsilon"),
    "PerturbationSpec-epsilon": (lambda x: PerturbationSpec(x), "epsilon"),
}


@pytest.mark.parametrize("flag", [True, np.True_], ids=["True", "np.True_"])
@pytest.mark.parametrize("call, name", list(SCALAR_ARGUMENTS.values()), ids=list(SCALAR_ARGUMENTS))
def test_every_scalar_argument_refuses_bools(call, name, flag):
    # True is no 1, as TrueDistributionSpec.constant(True) is no constant(1)
    with pytest.raises(ValidationError, match=rf"^{name} must be a number: got {re.escape(repr(flag))}$"):
        call(flag)


# A bad (predictions, true probabilities) pair, with the error every function of a pair raises for it, closed
# form or enumeration alike: predictions are checked, then true probabilities, then the lengths, then the budget.
BAD_PAIRS = {
    "mismatched-lengths": (
        ([0.1, 0.2], [0.3]), DimensionError, "predictions/true probabilities have mismatched lengths: 2 vs 1"
    ),
    "out-of-range": (
        ([0.1, 1.5], [0.3, 0.4]), ValidationError, "predictions[1] = 1.5 lies outside [0, 1] by more than 1e-12"
    ),
    "nan": (([0.1, 0.2], [0.3, math.nan]), ValidationError, "true probabilities[1] is not finite: nan"),
    "empty": (([], []), ValidationError, "predictions must contain at least one element"),
    "out-of-range-over-the-budget": (
        ([0.5] * 20 + [1.5], [0.5] * 21),
        ValidationError,
        "predictions[20] = 1.5 lies outside [0, 1] by more than 1e-12",
    ),
}


@pytest.mark.parametrize("call", [expected_bs, clt_normal_approx, exact_expected_bs, exact_distribution],
                         ids=lambda call: call.__name__)
@pytest.mark.parametrize("pair, error, message", BAD_PAIRS.values(), ids=list(BAD_PAIRS))
def test_every_pair_function_refuses_a_bad_pair_alike(call, pair, error, message):
    with pytest.raises(ValidationError) as info:  # an EnumerationBudgetError is none
        call(*pair)
    assert (type(info.value), str(info.value)) == (error, message)


class TestExpectedSingle:
    def test_perfect_half(self):
        assert expected_bs_single(0.5, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_perfect_tenth(self):
        assert expected_bs_single(0.1, 0.1) == pytest.approx(0.09, abs=1e-15)

    def test_model_comparison_values(self):
        # predicting 0 for a 10% event beats predicting 0.25, in expectation
        assert expected_bs_single(0.0, 0.1) == pytest.approx(0.1, abs=1e-15)
        assert expected_bs_single(0.25, 0.1) == pytest.approx(0.1125, abs=1e-15)

    def test_minimized_at_truth(self, rng):
        for _ in range(200):
            q = float(rng.random())
            best = expected_bs_single(q, q)
            other = float(rng.random())
            if other != q:
                assert expected_bs_single(other, q) > best

    def test_domain_rejected(self):
        with pytest.raises(ValidationError):
            expected_bs_single(1.2, 0.5)
        with pytest.raises(ValidationError):
            expected_bs_single(0.5, -0.2)

    @pytest.mark.parametrize(
        "args, name",
        [(("a", 0.1), "p1"), ((0.5, None), "q1"), (([0.5], 0.1), "p1"), ((0.5, "0.1"), "q1"), ((10**400, 0.1), "p1")],
    )
    def test_non_number_rejected_naming_the_argument(self, args, name):
        # float()'s own wording follows, and differs between Python versions
        with pytest.raises(ValidationError, match=rf"^{name} must be a number: "):
            expected_bs_single(*args)

    @given(unit_floats, unit_floats)
    def test_decomposition_identity(self, p1, q1):
        # expected score = closeness + irreducible part
        lhs = expected_bs_single(p1, q1)
        rhs = (p1 - q1) ** 2 + expected_bs_perfect_single(q1)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @given(unit_floats, unit_floats)
    def test_equals_the_vector_forms_of_one_case_bit_for_bit(self, p1, q1):
        # one definition of the per-case mean serves the scalar and the vector forms
        single = expected_bs_single(p1, q1).hex()
        assert single == expected_bs([p1], [q1]).hex() == clt_normal_approx([p1], [q1]).mean.hex()


class TestExpectedPerfectSingle:
    def test_maximum_at_half(self):
        assert expected_bs_perfect_single(0.5) == pytest.approx(0.25, abs=1e-15)

    def test_degenerate_certainty(self):
        assert expected_bs_perfect_single(0.0) == 0.0
        assert expected_bs_perfect_single(1.0) == 0.0

    def test_point_three(self):
        # cross-checked against the enumeration oracle with p = q = 0.3
        assert expected_bs_perfect_single(0.3) == pytest.approx(0.21, abs=1e-15)
        assert exact_expected_bs([0.3], [0.3]) == pytest.approx(0.21, abs=1e-12)

    @given(unit_floats)
    def test_symmetric_about_half(self, q1):
        assert expected_bs_perfect_single(q1) == pytest.approx(
            expected_bs_perfect_single(1.0 - q1), abs=1e-12
        )

    @given(unit_floats)
    def test_agrees_with_two_argument_form(self, q1):
        assert expected_bs_perfect_single(q1) == pytest.approx(
            expected_bs_single(q1, q1), abs=1e-15
        )


class TestExpectedVector:
    def test_constant_case(self):
        assert expected_bs([0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.25, abs=1e-15)

    def test_all_degenerate_truths(self):
        assert expected_bs([0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0]) == 0.0

    def test_two_case_hand_expansion(self):
        # mean of 0.26 and 0.10, confirmed by 2^2-outcome enumeration
        value = expected_bs([0.6, 0.2], [0.5, 0.1])
        assert value == pytest.approx(0.18, abs=1e-15)
        assert value == pytest.approx(exact_expected_bs([0.6, 0.2], [0.5, 0.1]), abs=1e-12)

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            expected_bs([0.5], [0.5, 0.5])


class TestShiftDifference:
    def test_shift_toward_half(self):
        # moving the truth (and perfect prediction) from 0.1 to 0.2
        assert shift_difference(0.1, 0.1) == pytest.approx(0.07, abs=1e-15)

    def test_zero_shift(self):
        assert shift_difference(0.3, 0.0) == 0.0

    def test_independent_evaluation(self):
        # f(0.3) - f(0.2) evaluated directly
        direct = expected_bs_perfect_single(0.3) - expected_bs_perfect_single(0.2)
        assert shift_difference(0.2, 0.1) == pytest.approx(direct, abs=1e-12)
        assert shift_difference(0.2, 0.1) == pytest.approx(0.05, abs=1e-15)

    def test_mirrored_downward_shift(self):
        # from q1 = 0.9 down to 0.8, same magnitude as the 0.1 -> 0.2 case
        spec = PerturbationSpec(0.1, "minus")
        direct = expected_bs_perfect_single(0.8) - expected_bs_perfect_single(0.9)
        assert shift_difference(0.9, spec) == pytest.approx(direct, abs=1e-12)
        assert shift_difference(0.9, spec) == pytest.approx(0.07, abs=1e-15)

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            shift_difference(0.45, 0.1)  # 0.55 > 1/2
        with pytest.raises(ValidationError):
            shift_difference(0.55, PerturbationSpec(0.1, "minus"))  # 0.45 < 1/2

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValidationError):
            shift_difference(0.1, -0.1)

    def test_non_number_epsilon_rejected_naming_it(self):
        with pytest.raises(ValidationError, match="^epsilon must be a number: got the string 'a'$"):
            shift_difference(0.1, "a")


class TestPerturbationSpec:
    @pytest.mark.parametrize("epsilon", [None, "0.1", [0.1], 10**400])
    def test_non_number_epsilon_rejected_naming_it(self, epsilon):
        # float()'s own wording follows, and differs between Python versions
        with pytest.raises(ValidationError, match="^epsilon must be a number: "):
            PerturbationSpec(epsilon)

    def test_epsilon_is_stored_as_a_float(self):
        spec = PerturbationSpec(np.int64(1), "minus")
        assert type(spec.epsilon) is float and spec.epsilon == 1.0
        assert spec == PerturbationSpec(1.0, "minus")


class TestPerturbDifference:
    def test_tenth_perturbation(self):
        assert perturb_difference(0.1) == pytest.approx(0.01, abs=1e-15)

    def test_zero(self):
        assert perturb_difference(0.0) == 0.0

    def test_direction_independent(self):
        assert perturb_difference(PerturbationSpec(0.2, "minus")) == pytest.approx(
            0.04, abs=1e-15
        )

    def test_non_number_epsilon_rejected_naming_it(self):
        with pytest.raises(ValidationError, match="^epsilon must be a number: got the string 'a'$"):
            perturb_difference("a")

    def test_sweep_against_expected_single(self):
        # g(q + eps, q) - g(q, q) == eps^2 for every interior q
        eps = 0.05
        for q1 in np.arange(0.1, 0.95, 0.1):
            direct = expected_bs_single(q1 + eps, q1) - expected_bs_single(q1, q1)
            assert direct == pytest.approx(eps**2, abs=1e-12)
            direct_down = expected_bs_single(q1 - eps, q1) - expected_bs_single(q1, q1)
            assert direct_down == pytest.approx(eps**2, abs=1e-12)


class TestEffectiveness:
    def test_truth_always_wins(self, rng):
        q = rng.random(5)
        p2 = np.clip(q + 0.2, 0, 1)
        assert effectiveness_compare(q, p2, q) is Ordering.FIRST_BETTER

    def test_symmetric_perturbations_tie(self):
        q = np.array([0.3, 0.4, 0.5])
        assert effectiveness_compare(q + 0.1, q - 0.1, q) is Ordering.TIE

    def test_squared_distances_within_constant_tol_tie(self):
        # the tolerance is CONSTANT_TOL (1e-12), not an argument
        assert effectiveness_compare([0.5], [0.5 + 1e-7], [0.5]) is Ordering.TIE  # 1e-14 apart
        assert effectiveness_compare([0.5], [0.5 + 1e-5], [0.5]) is Ordering.FIRST_BETTER  # 1e-10 apart
        with pytest.raises(TypeError):
            effectiveness_compare([0.5], [0.6], [0.5], tol=0.1)

    def test_inside_circle_beats_boundary(self):
        # truth at (1/2, 1/2): a prediction strictly inside a radius-0.2
        # circle beats one on the circle
        q = [0.5, 0.5]
        inside = [0.5, 0.6]
        boundary = [0.7, 0.5]
        assert effectiveness_compare(inside, boundary, q) is Ordering.FIRST_BETTER
        assert expected_bs(inside, q) < expected_bs(boundary, q)

    def test_order_matches_expected_score_order(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 12))
            q = rng.random(n)
            p = rng.random(n)
            p2 = rng.random(n)
            order = effectiveness_compare(p, p2, q)
            diff = expected_bs(p, q) - expected_bs(p2, q)
            if order is Ordering.FIRST_BETTER:
                assert diff < 0
            elif order is Ordering.SECOND_BETTER:
                assert diff > 0
            else:
                assert abs(diff) <= 1e-12


class TestVarianceSingle:
    def test_half_prediction_is_constant(self):
        for q1 in (0.0, 0.3, 0.9):
            assert variance_single(0.5, q1) == 0.0

    def test_deterministic_outcome(self):
        assert variance_single(0.2, 0.0) == 0.0
        assert variance_single(0.2, 1.0) == 0.0

    def test_two_point_enumeration(self):
        # (p - Y)^2 takes 0.81 w.p. 0.1 and 0.01 w.p. 0.9
        p1 = q1 = 0.1
        values = np.array([(p1 - 1.0) ** 2, p1**2])
        masses = np.array([q1, 1.0 - q1])
        mean = float(values @ masses)
        var = float(((values - mean) ** 2) @ masses)
        assert variance_single(p1, q1) == pytest.approx(var, abs=1e-15)
        assert variance_single(p1, q1) == pytest.approx(0.0576, abs=1e-15)

    @given(unit_floats, unit_floats)
    def test_nonnegative(self, p1, q1):
        assert variance_single(p1, q1) >= 0.0

    @given(unit_floats, unit_floats)
    def test_equals_the_per_case_variance_of_the_normal_approximation_bit_for_bit(self, p1, q1):
        assert variance_single(p1, q1).hex() == clt_normal_approx([p1], [q1]).variance.hex()


class TestCltNormalApprox:
    def test_constant_half_is_deterministic(self):
        summary = clt_normal_approx([0.5] * 1000, [0.5] * 1000)
        assert summary.mean == pytest.approx(0.25, abs=1e-15)
        assert summary.sd_of_mean == 0.0

    def test_constant_tenth(self):
        summary = clt_normal_approx([0.1] * 300, [0.1] * 300)
        assert summary.mean == pytest.approx(0.09, abs=1e-12)
        assert summary.variance == pytest.approx(0.0576, abs=1e-12)
        assert summary.sd_of_mean == pytest.approx(math.sqrt(0.0576 / 300), abs=1e-12)

    def test_degenerate_truths(self):
        q = [0.0, 1.0, 1.0, 0.0]
        summary = clt_normal_approx(q, q)
        assert summary.mean == 0.0
        assert summary.sd_of_mean == 0.0

    def test_sd_consistent_with_variance(self, rng):
        p, q = rng.random(17), rng.random(17)
        summary = clt_normal_approx(p, q)
        assert summary.sd_of_mean == pytest.approx(
            math.sqrt(summary.variance / summary.n), abs=1e-15
        )


class TestJensenBound:
    def test_constant_vector_is_tight(self):
        bound = jensen_bound([0.5, 0.5])
        assert bound.bound == pytest.approx(0.25, abs=1e-15)
        assert bound.tight

    def test_two_point_not_tight(self):
        bound = jensen_bound([0.0, 1.0])
        assert bound.bound == pytest.approx(0.25, abs=1e-15)
        assert not bound.tight
        assert expected_bs([0.0, 1.0], [0.0, 1.0]) == 0.0

    def test_small_example(self):
        bound = jensen_bound([0.2, 0.4])
        assert bound.bound == pytest.approx(0.21, abs=1e-12)
        assert expected_bs([0.2, 0.4], [0.2, 0.4]) == pytest.approx(0.20, abs=1e-12)
        assert expected_bs([0.2, 0.4], [0.2, 0.4]) <= bound.bound

    def test_bound_holds_randomly(self, rng):
        for _ in range(300):
            q = rng.random(int(rng.integers(1, 30)))
            bound = jensen_bound(q)
            assert expected_bs(q, q) <= bound.bound + 1e-12

    def test_constant_predictor_matching_mean(self, rng):
        # predicting the true mean incidence c for every case costs c - c^2
        for _ in range(100):
            n = int(rng.integers(2, 30))
            c = float(rng.uniform(0.2, 0.8))
            q = rng.uniform(0.0, 0.2, n)
            q = np.clip(q - q.mean() + c, 0.0, 1.0)  # re-center to mean c
            if abs(q.mean() - c) > 1e-12:
                continue  # clipped; re-centering failed
            assert expected_bs(np.full(n, c), q) == pytest.approx(c - c * c, abs=1e-12)


class TestPerfectLowerBound:
    def test_all_degenerate_gives_zero(self):
        assert perfect_bs_lower_bound([0.0, 1.0, 0.0]) == 0.0

    def test_best_margin_coordinate(self):
        assert perfect_bs_lower_bound([0.1, 0.0, 1.0]) == pytest.approx(0.01 / 3, abs=1e-15)

    def test_single_half(self):
        assert perfect_bs_lower_bound([0.5]) == pytest.approx(0.25, abs=1e-15)

    def test_exhaustive_minimum_attains_bound(self):
        # for q = (0.1, 0, 1) the minimum score over all 8 outcomes equals the bound
        q = np.array([0.1, 0.0, 1.0])
        scores = []
        for bits in range(8):
            y = np.array([(bits >> i) & 1 for i in range(3)], dtype=float)
            scores.append(np.mean((q - y) ** 2))
        assert min(scores) == pytest.approx(perfect_bs_lower_bound(q), abs=1e-15)

    def test_positive_iff_interior_truth(self, rng):
        for _ in range(100):
            q = (rng.random(6) < 0.5).astype(float)
            assert perfect_bs_lower_bound(q) == 0.0
            q[0] = 0.25
            assert perfect_bs_lower_bound(q) > 0.0


class TestStrictPropriety:
    def test_randomized(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 15))
            q = rng.random(n)
            p = rng.random(n)
            if np.allclose(p, q):
                continue
            assert expected_bs(q, q) < expected_bs(p, q)
