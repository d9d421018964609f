"""Sampling mechanisms: distributions, transforms, outcomes, pools, streams."""

import dataclasses
import json
import os

import numpy as np
import pytest

from brierlab.dgm import (
    EmpiricalProbabilityPool,
    PREDICTOR_TRANSFORMS,
    TRUE_DISTRIBUTIONS,
    PredictorTransformSpec,
    TrueDistributionSpec,
    apply_predictor_transform,
    derive_stream,
    load_empirical_pool,
    make_synthetic_pool,
    sample_outcomes,
    sample_true_probs,
    write_pool_file,
)
from brierlab.errors import InsufficientPoolError, ValidationError


def _pool(values):
    return EmpiricalProbabilityPool(values, "test-pool")


def reference_sample_true_probs(spec, size, rng):
    """The draw of every true-distribution kind as one if-chain, before the kinds became a registry."""
    shape = (size,) if np.ndim(size) == 0 else tuple(size)
    n = shape[-1]
    if spec.kind == "uniform":
        a, b = spec.params
        return rng.uniform(a, b, shape)
    if spec.kind == "beta":
        alpha, beta = spec.params
        return rng.beta(alpha, beta, shape)
    if spec.kind == "constant":
        return np.full(shape, spec.params[0])
    if spec.kind == "two_point":
        v0, v1, w = spec.params
        return np.where(rng.random(shape) < w, v1, v0)
    if spec.kind == "empirical":
        q = np.empty(shape)
        for row in q.reshape(-1, n):
            row[:] = rng.choice(spec.pool.probabilities, size=n, replace=False)
        return q
    raise ValueError(f"unknown true-distribution kind {spec.kind!r}")


def reference_apply_predictor_transform(q, spec, rng):
    """The draw of every predictor-transform kind as one if-chain, before the kinds became a registry."""
    q = np.asarray(q, dtype=float)
    if spec.kind == "perfect":
        return q.copy()
    if spec.kind == "additive_bias":
        p = q + spec.params[0]
    elif spec.kind == "uniform_noise":
        half_width = spec.params[0]
        p = q + rng.uniform(-half_width, half_width, q.shape)
    elif spec.kind == "rademacher_noise":
        magnitude = spec.params[0]
        p = q + magnitude * (1.0 - 2.0 * rng.integers(0, 2, q.shape))
    else:
        raise ValueError(f"unknown predictor-transform kind {spec.kind!r}")
    return np.clip(p, 0.0, 1.0, out=p)


# One spec per kind of each family, built through the public constructors.
TRUE_SPECS = {
    "uniform": TrueDistributionSpec.uniform(0.1, 0.7),
    "beta": TrueDistributionSpec.beta(2.0, 5.0),
    "constant": TrueDistributionSpec.constant(0.3),
    "two_point": TrueDistributionSpec.two_point(0.1, 0.9, 0.3),
    "empirical": TrueDistributionSpec.empirical(_pool(np.linspace(0.01, 0.99, 80))),
}
TRANSFORM_SPECS = {
    "perfect": PredictorTransformSpec.perfect(),
    "additive_bias": PredictorTransformSpec.additive_bias(-0.2),
    "uniform_noise": PredictorTransformSpec.uniform_noise(0.1),
    "rademacher_noise": PredictorTransformSpec.rademacher_noise(0.1),
}
SHAPES = [37, (5, 37)]


class TestRegistryMatchesReference:
    """The registries draw the same numbers, and consume the same randomness, as the if-chains."""

    def test_every_kind_has_a_spec(self):
        assert set(TRUE_SPECS) == {*TRUE_DISTRIBUTIONS, "empirical"}
        assert set(TRANSFORM_SPECS) == set(PREDICTOR_TRANSFORMS)

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("kind", sorted(TRUE_SPECS))
    def test_true_distribution(self, kind, shape):
        new, old = derive_stream(20250810, 3, 1, 0), derive_stream(20250810, 3, 1, 0)
        q = sample_true_probs(TRUE_SPECS[kind], shape, new)
        assert np.array_equal(q, reference_sample_true_probs(TRUE_SPECS[kind], shape, old))
        assert new.random() == old.random()

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("kind", sorted(TRANSFORM_SPECS))
    def test_transform(self, kind, shape):
        q = sample_true_probs(TRUE_SPECS["uniform"], shape, derive_stream(20250810, 3, 1, 0))
        new, old = derive_stream(20250810, 3, 1, 1), derive_stream(20250810, 3, 1, 1)
        p = apply_predictor_transform(q, TRANSFORM_SPECS[kind], new)
        assert np.array_equal(p, reference_apply_predictor_transform(q, TRANSFORM_SPECS[kind], old))
        assert new.random() == old.random()


# Per kind: in-domain params and the label they get, then out-of-domain params and their text.
LABELS = {
    "uniform": ((0.1, 0.7), "uniform(0.1,0.7)"),
    "beta": ((2, 5), "beta(2,5)"),
    "constant": ((0.3,), "constant(0.3)"),
    "two_point": ((0.1, 0.9, 0.3), "two_point(0.1,0.9,0.3)"),
    "perfect": ((), "perfect"),
    "additive_bias": ((0.1,), "bias(+0.1)"),
    "uniform_noise": ((0.1,), "unif_noise(0.1)"),
    "rademacher_noise": ((0.1,), "rademacher(0.1)"),
}
OUT_OF_DOMAIN = {
    "uniform": ((0.5, 0.2), "uniform bounds need 0 <= a < b <= 1, got (0.5, 0.2)"),
    "beta": ((-1.0, 2.0), "beta shapes must be positive and finite, got (-1.0, 2.0)"),
    "constant": ((1.5,), "constant value must lie in [0, 1], got 1.5"),
    "two_point": ((0.1, 0.9, 2.0), "two_point w must lie in [0, 1], got 2.0"),
    "additive_bias": ((1,), "bias delta must satisfy |delta| < 1, got 1"),
    "uniform_noise": ((0,), "noise half width must lie in (0, 1), got 0"),
    "rademacher_noise": ((-0.1,), "noise magnitude must be positive, got -0.1"),
}
FAMILIES = [(TrueDistributionSpec, TRUE_DISTRIBUTIONS), (PredictorTransformSpec, PREDICTOR_TRANSFORMS)]
FAMILY_NAMES = {TrueDistributionSpec: "true-distribution", PredictorTransformSpec: "predictor-transform"}
KINDS = [(spec_class, kind) for spec_class, registry in FAMILIES for kind in registry]


def _kind_id(value):
    return getattr(value, "__name__", value)


class TestOneCheckedPathPerKind:
    """A spec built directly is checked and labelled by its kind's entry, as the classmethod's is."""

    def test_every_kind_is_tabled(self):
        assert set(LABELS) == {kind for _, kind in KINDS}
        assert set(OUT_OF_DOMAIN) == set(LABELS) - {"perfect"}

    @pytest.mark.parametrize("spec_class, kind", [k for k in KINDS if k[1] in OUT_OF_DOMAIN], ids=_kind_id)
    def test_direct_out_of_domain_spec_raises_the_classmethod_text(self, spec_class, kind):
        params, text = OUT_OF_DOMAIN[kind]
        for build in (lambda: spec_class(kind, params), lambda: getattr(spec_class, kind)(*params)):
            with pytest.raises(ValidationError) as info:
                build()
            assert str(info.value) == text

    @pytest.mark.parametrize("spec_class, kind", KINDS, ids=_kind_id)
    def test_direct_spec_gets_the_classmethod_label(self, spec_class, kind):
        params, label = LABELS[kind]
        direct, wrapped = spec_class(kind, params), getattr(spec_class, kind)(*params)
        assert direct == wrapped
        assert direct.label == label
        assert direct.params == tuple(float(value) for value in params)
        assert all(type(value) is float for value in direct.params)
        with pytest.raises(TypeError):  # a label is derived, never passed
            spec_class(kind, params, label="mine")

    def test_scenario_of_direct_specs_gets_the_classmethod_label(self):
        from brierlab.engine import Scenario

        direct = Scenario(TrueDistributionSpec("uniform", (0, 0.2)), PredictorTransformSpec("additive_bias", (0.1,)), 300)
        wrapped = Scenario(TrueDistributionSpec.uniform(0, 0.2), PredictorTransformSpec.additive_bias(0.1), 300)
        assert direct.label == wrapped.label == "uniform(0,0.2)+bias(+0.1)+n300"

    def test_a_label_is_derived_never_passed(self):
        from brierlab.engine import Scenario

        dist, transform = TrueDistributionSpec.beta(2, 5), PredictorTransformSpec.perfect()
        scenario = Scenario(dist, transform, 5)
        for build in (lambda: TrueDistributionSpec("beta", (2, 5), label="x"),
                      lambda: PredictorTransformSpec("perfect", label="x"),
                      lambda: Scenario(dist, transform, 5, label="x")):
            with pytest.raises(TypeError):
                build()
        for value in (dist, transform, scenario):
            with pytest.raises(ValueError, match="init=False"):
                dataclasses.replace(value, label="x")
        # so a replaced field can never leave a stale label behind
        assert dataclasses.replace(dist, params=(3, 4)).label == "beta(3,4)"
        assert dataclasses.replace(scenario, n=7).label == "beta(2,5)+perfect+n7"
        assert dataclasses.replace(scenario, true_dist=TrueDistributionSpec.constant(0.5)).label == (
            "constant(0.5)+perfect+n5"
        )

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")], ids=str)
    @pytest.mark.parametrize("spec_class, kind", [k for k in KINDS if k[1] != "perfect"], ids=_kind_id)
    def test_every_param_rejects_non_finite_values(self, spec_class, kind, value):
        registry = dict(FAMILIES)[spec_class]
        for i in range(len(registry[kind].fields)):
            params = list(LABELS[kind][0])
            params[i] = value
            text = registry[kind].check(*params)
            assert text is not None and "finite numbers" not in text
            for build in (lambda: spec_class(kind, tuple(params)), lambda: getattr(spec_class, kind)(*params)):
                with pytest.raises(ValidationError) as info:
                    build()
                assert str(info.value) == text

    def test_non_numbers_rejected_before_the_domain_check(self):
        with pytest.raises(ValidationError, match=r"^true-distribution kind 'beta' takes finite numbers, got \('2', 5\)$"):
            TrueDistributionSpec("beta", ("2", 5))
        with pytest.raises(ValidationError, match=r"^predictor-transform kind 'uniform_noise' takes finite numbers"):
            PredictorTransformSpec.uniform_noise(None)

    @pytest.mark.parametrize("value", [True, False], ids=str)
    @pytest.mark.parametrize("spec_class, kind", [k for k in KINDS if k[1] != "perfect"], ids=_kind_id)
    def test_every_param_rejects_bools(self, spec_class, kind, value):
        # True is a numbers.Real, yet constant(True) is no constant(1): refused as the config reader refuses it
        for i in range(len(dict(FAMILIES)[spec_class][kind].fields)):
            params = list(LABELS[kind][0])
            params[i] = value
            text = f"{FAMILY_NAMES[spec_class]} kind {kind!r} takes finite numbers, got {tuple(params)!r}"
            for build in (lambda: spec_class(kind, tuple(params)), lambda: getattr(spec_class, kind)(*params)):
                with pytest.raises(ValidationError) as info:
                    build()
                assert str(info.value) == text

    @pytest.mark.parametrize(
        "spec_class, kind, position",
        [(TrueDistributionSpec, "beta", 0), (TrueDistributionSpec, "beta", 1), (PredictorTransformSpec, "rademacher_noise", 0)],
        ids=["beta-alpha", "beta-beta", "rademacher-magnitude"],
    )
    def test_integer_too_large_for_a_float_is_rejected(self, tmp_path, capsys, spec_class, kind, position):
        # 10**400 passes a "< inf" domain check, so the real-number test must catch float()'s overflow
        from brierlab.cli import main
        from brierlab.engine import load_study_config
        from brierlab.errors import ConfigError

        params = list(LABELS[kind][0])
        params[position] = 10**400
        text = f"{FAMILY_NAMES[spec_class]} kind {kind!r} takes finite numbers, got {tuple(params)!r}"
        for build in (lambda: spec_class(kind, tuple(params)), lambda: getattr(spec_class, kind)(*params)):
            with pytest.raises(ValidationError) as info:
                build()
            assert str(info.value) == text
        entry = {"kind": kind, **dict(zip(dict(FAMILIES)[spec_class][kind].fields, params))}
        place = "dgms" if spec_class is TrueDistributionSpec else "transforms"
        doc = {
            "study": {"name": "huge", "seed": 1, "N": 5, "sample_sizes": [10]},
            "dgms": [{"kind": "constant", "c": 0.5}],
            "transforms": [{"kind": "perfect"}],
            place: [entry],
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as info:
            load_study_config(path)
        assert str(info.value) == f"{place}[0]: {text}"
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"{place}[0]: {text}" in capsys.readouterr().err

    @pytest.mark.parametrize("params", [0.5, None], ids=str)
    @pytest.mark.parametrize("spec_class, kind", KINDS, ids=_kind_id)
    def test_params_that_are_not_a_sequence_are_rejected(self, spec_class, kind, params):
        fields = dict(FAMILIES)[spec_class][kind].fields
        with pytest.raises(ValidationError) as info:
            spec_class(kind, params)
        assert str(info.value) == f"{FAMILY_NAMES[spec_class]} kind {kind!r} takes params {fields}, got {params!r}"
        as_list = list(LABELS[kind][0])
        assert spec_class(kind, as_list) == getattr(spec_class, kind)(*as_list)

    def test_direct_empirical_spec_is_checked_and_labelled(self):
        assert TrueDistributionSpec("empirical", pool=_pool([0.2, 0.4])).label == "empirical(test-pool)"
        with pytest.raises(ValidationError, match="^pool 'none' must contain at least one element$"):
            EmpiricalProbabilityPool(np.array([]), "none")

    @pytest.mark.parametrize("kind", TRUE_DISTRIBUTIONS)
    def test_parametric_spec_given_a_pool_is_rejected(self, kind):
        # it would never draw from the pool, yet the study's pool-size check would still judge it
        with pytest.raises(ValidationError) as info:
            TrueDistributionSpec(kind, LABELS[kind][0], pool=_pool([0.2, 0.4, 0.6]))
        assert str(info.value) == f"true-distribution kind {kind!r} draws its own values and takes no pool"


class TestTrueDistributions:
    def test_constant(self, rng):
        q = sample_true_probs(TrueDistributionSpec.constant(0.5), 3, rng)
        assert q.tolist() == [0.5, 0.5, 0.5]

    def test_uniform_moment(self):
        # E[Q - Q^2] = 1/2 - 1/3 = 1/6 for Unif(0, 1)
        stream = derive_stream(101, 0)
        q = sample_true_probs(TrueDistributionSpec.uniform(0.0, 1.0), 100_000, stream)
        assert np.mean(q - q * q) == pytest.approx(1.0 / 6.0, abs=0.005)
        assert q.min() >= 0.0 and q.max() <= 1.0

    def test_beta_moment(self):
        stream = derive_stream(102, 0)
        q = sample_true_probs(TrueDistributionSpec.beta(2.0, 5.0), 100_000, stream)
        assert np.mean(q) == pytest.approx(2.0 / 7.0, abs=0.005)

    def test_two_point_support_and_weight(self):
        stream = derive_stream(103, 0)
        spec = TrueDistributionSpec.two_point(0.0, 1.0, 0.5)
        q = sample_true_probs(spec, 100_000, stream)
        assert set(np.unique(q)) <= {0.0, 1.0}
        assert np.mean(q) == pytest.approx(0.5, abs=0.005)

    def test_empirical_subsample_without_replacement(self):
        pool_values = np.linspace(0.01, 0.99, 100)
        spec = TrueDistributionSpec.empirical(_pool(pool_values))
        q = sample_true_probs(spec, 60, derive_stream(104, 0))
        assert len(np.unique(q)) == 60  # no index reused
        assert set(q).issubset(set(pool_values))

    def test_empirical_pool_too_small(self):
        spec = TrueDistributionSpec.empirical(_pool([0.1, 0.2, 0.3]))
        with pytest.raises(InsufficientPoolError):
            sample_true_probs(spec, 4, derive_stream(105, 0))

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            TrueDistributionSpec.uniform(0.5, 0.5)
        with pytest.raises(ValidationError):
            TrueDistributionSpec.uniform(-0.1, 1.0)
        with pytest.raises(ValidationError):
            TrueDistributionSpec.beta(0.0, 5.0)
        with pytest.raises(ValidationError, match="finite"):
            TrueDistributionSpec.beta(2.0, float("inf"))
        with pytest.raises(ValidationError):
            TrueDistributionSpec.constant(1.5)
        with pytest.raises(ValidationError):
            TrueDistributionSpec.two_point(0.0, 1.2, 0.5)

    def test_direct_spec_checked_at_construction(self):
        with pytest.raises(ValidationError, match="unknown true-distribution kind 'zeta'"):
            TrueDistributionSpec(kind="zeta")
        with pytest.raises(ValidationError, match=r"uniform' takes params \('a', 'b'\), got \(0.1,\)"):
            TrueDistributionSpec(kind="uniform", params=(0.1,))
        with pytest.raises(ValidationError, match="takes a pool and no params"):
            TrueDistributionSpec(kind="empirical")
        with pytest.raises(ValidationError, match="takes a pool and no params"):
            TrueDistributionSpec(kind="empirical", params=(0.1,), pool=_pool([0.2]))
        assert TrueDistributionSpec(kind="constant", params=(0.4,)).params == (0.4,)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_direct_spec_rejects_non_finite_params(self, value):
        # the kind's own domain check names the bad value, as the classmethod does
        with pytest.raises(ValidationError, match=rf"^uniform bounds need 0 <= a < b <= 1, got \(0.0, {value}\)$"):
            TrueDistributionSpec(kind="uniform", params=(0.0, value))
        with pytest.raises(ValidationError, match=rf"^bias delta must satisfy \|delta\| < 1, got {value}$"):
            PredictorTransformSpec(kind="additive_bias", params=(value,))

    @pytest.mark.parametrize("size", [0, -2, 2.5, True, "10", None, (), (3, 2.5), (-1, 5), (3, 0), (True, 5)], ids=repr)
    def test_sample_size_validated(self, rng, size):
        with pytest.raises(ValidationError) as info:
            sample_true_probs(TrueDistributionSpec.constant(0.5), size, rng)
        assert str(info.value).endswith(f"got {size!r}")


class TestTransforms:
    def test_perfect_is_identity(self, rng):
        q = rng.random(20)
        p = apply_predictor_transform(q, PredictorTransformSpec.perfect(), rng)
        assert np.array_equal(p, q)
        assert p is not q  # fresh array, inputs never aliased

    def test_perfect_clamps_out_of_range_truths(self, rng):
        # sample_true_probs never draws such a q; perfect shares the one clamp with the other kinds
        p = apply_predictor_transform(np.array([-0.5, 0.25, 1.5]), PredictorTransformSpec.perfect(), rng)
        assert p.tolist() == [0.0, 0.25, 1.0]

    def test_bias_clamps_at_one(self, rng):
        p = apply_predictor_transform(
            np.array([0.95]), PredictorTransformSpec.additive_bias(0.1), rng
        )
        assert p.tolist() == [1.0]

    def test_bias_clamps_at_zero(self, rng):
        p = apply_predictor_transform(
            np.array([0.05]), PredictorTransformSpec.additive_bias(-0.1), rng
        )
        assert p.tolist() == [0.0]

    def test_rademacher_two_point_support(self):
        q = np.full(1000, 0.5)
        p = apply_predictor_transform(
            q, PredictorTransformSpec.rademacher_noise(0.1), derive_stream(106, 0)
        )
        assert set(np.round(np.unique(p), 12)) == {0.4, 0.6}

    def test_uniform_noise_stays_clamped(self):
        q = np.linspace(0.0, 1.0, 5000)
        p = apply_predictor_transform(
            q, PredictorTransformSpec.uniform_noise(0.1), derive_stream(107, 0)
        )
        assert p.min() >= 0.0 and p.max() <= 1.0

    def test_noise_unbiased_away_from_boundary(self):
        q = np.full(100_000, 0.5)
        for spec, key in (
            (PredictorTransformSpec.uniform_noise(0.1), 1),
            (PredictorTransformSpec.rademacher_noise(0.1), 2),
        ):
            p = apply_predictor_transform(q, spec, derive_stream(108, key))
            assert np.mean(p - q) == pytest.approx(0.0, abs=0.003)

    def test_transform_validation(self):
        with pytest.raises(ValidationError):
            PredictorTransformSpec.additive_bias(1.0)
        with pytest.raises(ValidationError):
            PredictorTransformSpec.uniform_noise(0.0)
        with pytest.raises(ValidationError):
            PredictorTransformSpec.rademacher_noise(-0.1)

    def test_direct_spec_checked_at_construction(self):
        with pytest.raises(ValidationError, match=r"perfect' takes params \(\), got \(1.0,\)"):
            PredictorTransformSpec(kind="perfect", params=(1.0,))
        for kind in ("empirical", ["perfect"]):
            with pytest.raises(ValidationError, match="unknown predictor-transform kind"):
                PredictorTransformSpec(kind=kind)


class TestOutcomes:
    def test_degenerate_truths_are_deterministic(self, rng):
        y = sample_outcomes(np.array([0.0, 1.0]), rng)
        assert y.tolist() == [0.0, 1.0]

    def test_incidence_concentrates(self):
        y = sample_outcomes(np.full(100_000, 0.2), derive_stream(109, 0))
        assert np.mean(y) == pytest.approx(0.2, abs=0.005)
        assert set(np.unique(y)) <= {0.0, 1.0}

    def test_same_stream_state_repeats(self):
        q = np.linspace(0.1, 0.9, 50)
        y1 = sample_outcomes(q, derive_stream(110, 7))
        y2 = sample_outcomes(q, derive_stream(110, 7))
        assert np.array_equal(y1, y2)

    def test_values_within_the_tolerance_draw_as_snapped(self):
        # a value within 1e-12 outside [0, 1] is snapped, and its y is that of the snapped value
        q = np.array([[-1e-12, 0.0, 0.3], [1.0 + 1e-12, 1.0, -5e-13]])
        y = sample_outcomes(q, derive_stream(111, 0))
        assert y.tobytes() == sample_outcomes(np.clip(q, 0.0, 1.0), derive_stream(111, 0)).tobytes()
        assert y[:, :2].tolist() == [[0.0, 0.0], [1.0, 1.0]]
        assert q[0, 0] == -1e-12  # the caller's q is never snapped in place

    @pytest.mark.parametrize("q, message", [
        ([[0.5, np.nan]], "true probabilities[1] is not finite: nan"),
        ([0.5, 0.2, -np.inf], "true probabilities[2] is not finite: -inf"),
        ([[0.5], [1 + 1e-9]], "true probabilities[1] = 1.000000001 lies outside [0, 1] by more than 1e-12"),
        # numpy's own words follow, and numpy 2 shows the text as np.str_('abc')
        (["0.5", "abc"], "true probabilities must hold numbers only: could not convert string to float: "),
        ([], "true probabilities must contain at least one element"),
    ], ids=repr)
    def test_bad_values_raise_before_any_draw(self, q, message):
        rng = derive_stream(112, 0)
        with pytest.raises(ValidationError) as info:
            sample_outcomes(q, rng)
        assert str(info.value).startswith(message)
        assert rng.random() == derive_stream(112, 0).random()

    def test_a_read_only_q_is_taken_and_never_written(self):
        q = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        q.setflags(write=False)
        before = q.tobytes()
        y = sample_outcomes(q, derive_stream(113, 0))
        assert q.tobytes() == before and y.shape == (3, 4)

    @pytest.mark.parametrize("q", [
        [0.0, 0.25, 0.5, 1.0],
        np.array([0.0, 0.25, 0.5, 1.0], dtype=np.float32),
        np.array([-0.0, 0.25, 0.5, 1.0]),
        np.array([0.0, 0.25, 0.5, 1.0]),
    ], ids=["list", "float32", "negative-zero", "float64"])
    def test_the_result_is_a_new_float64_array_of_the_same_draws(self, q):
        y = sample_outcomes(q, derive_stream(114, 0))
        assert y.dtype == np.float64 and y.flags.owndata and y.flags.writeable
        assert not np.shares_memory(y, np.asarray(q))
        u = derive_stream(114, 0).random(4)
        assert y.tobytes() == (u < np.array([0.0, 0.25, 0.5, 1.0])).astype(np.float64).tobytes()
        assert y[0] == 0.0 and y[-1] == 1.0


class TestStreams:
    def test_same_address_same_draws(self):
        a = derive_stream(42, 1, 2, 3).random(8)
        b = derive_stream(42, 1, 2, 3).random(8)
        assert np.array_equal(a, b)

    def test_different_purpose_different_draws(self):
        a = derive_stream(42, 1, 2, 0).random(8)
        b = derive_stream(42, 1, 2, 1).random(8)
        assert not np.array_equal(a, b)

    def test_different_root_different_draws(self):
        a = derive_stream(42, 1).random(8)
        b = derive_stream(43, 1).random(8)
        assert not np.array_equal(a, b)


class TestPoolFiles:
    def test_load_with_comments(self, tmp_path):
        path = tmp_path / "pool.txt"
        path.write_text("# header comment\n0.07\n0.2 # trailing comment\n\n0.5\n")
        pool = load_empirical_pool(path)
        assert pool.probabilities.tolist() == [0.07, 0.2, 0.5]
        assert pool.label == "pool"
        assert pool.nominal_incidence == pytest.approx((0.07 + 0.2 + 0.5) / 3, abs=1e-15)

    @pytest.mark.parametrize(
        ("name", "label"),
        [(".pool", ".pool"), ("a\\b.txt", "a\\b"), ("x.tar.txt", "x.tar"), ("name.", "name"), ("noext", "noext")],
    )
    def test_default_label_is_the_file_name_without_its_last_extension(self, tmp_path, name, label):
        # a dotfile's name is all stem, and a backslash is a character of a POSIX file name
        if "\\" in name and os.sep == "\\":
            pytest.skip("a backslash separates directories here")
        (tmp_path / name).write_text("0.1\n0.2\n")
        assert load_empirical_pool(tmp_path / name).label == label

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        # a spreadsheet's "CSV UTF-8" export starts the file with U+FEFF
        path = tmp_path / "pool.txt"
        path.write_bytes(b"\xef\xbb\xbf0.1\n0.2\n0.3\n")
        assert load_empirical_pool(path).probabilities.tolist() == [0.1, 0.2, 0.3]

    def test_constant_pool_incidence(self, tmp_path):
        path = tmp_path / "flat.txt"
        path.write_text("".join("0.07\n" for _ in range(5000)))
        pool = load_empirical_pool(path)
        assert pool.size == 5000
        assert pool.nominal_incidence == pytest.approx(0.07, abs=1e-12)

    def test_out_of_range_reports_line(self, tmp_path):
        path = tmp_path / "pool.txt"
        path.write_text("0.5\n1.3\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_empirical_pool(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "pool.txt"
        path.write_text("0.5\nbananas\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_empirical_pool(path)

    @pytest.mark.parametrize("text, values", [
        ("0.1_5\n0.2\n", [0.15, 0.2]),  # float() takes an underscore and numpy does not
        ("0.1\r\n\r\n0.2 # note\r\n\t0.3\t\n", [0.1, 0.2, 0.3]),
        ("0.1\r0.2\r", [0.1, 0.2]),  # a lone carriage return ends a line
        ("-0.0\n1\n", [0.0, 1.0]),
    ], ids=repr)
    def test_every_line_form_float_takes_is_read(self, tmp_path, text, values):
        path = tmp_path / "pool.txt"
        path.write_bytes(text.encode())
        assert load_empirical_pool(path).probabilities.tolist() == values

    @pytest.mark.parametrize("text, message", [
        # one line of two numbers is one entry float() refuses, not two values
        ("0.5 0.6\n", "line 1: non-numeric entry '0.5 0.6'"),
        ("0.5\n0.6 0.7\n", "line 2: non-numeric entry '0.6 0.7'"),
        ("0.5\n\n# x\nnan\n", "line 4: probability nan outside [0, 1]"),
        ("0.5\r\n-1e-300\r\n", "line 2: probability -1e-300 outside [0, 1]"),
    ], ids=repr)
    def test_a_bad_line_is_named(self, tmp_path, text, message):
        path = tmp_path / "pool.txt"
        path.write_bytes(text.encode())
        with pytest.raises(ValidationError) as info:
            load_empirical_pool(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("name", ["smoking-synthetic.txt", "osteoporosis-synthetic.txt"])
    def test_checked_in_pools_read_as_float_reads_each_line(self, name):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "pools", name)
        with open(path, encoding="utf-8") as fh:
            values = [float(line) for line in fh if not line.startswith("#")]
        assert load_empirical_pool(path).probabilities.tobytes() == np.array(values).tobytes()

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "pool.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ValidationError):
            load_empirical_pool(path)

    def test_write_load_round_trip(self, tmp_path):
        pool = make_synthetic_pool(0.263, size=200, rng=5, label="roundtrip")
        path = tmp_path / "roundtrip.txt"
        write_pool_file(pool, path, comment="test pool")
        loaded = load_empirical_pool(path, label="roundtrip")
        assert np.array_equal(loaded.probabilities, pool.probabilities)

    @pytest.mark.parametrize("label", ["a\n0.9", "a\rb", "a\r\n0.5"], ids=["newline", "carriage-return", "crlf"])
    def test_line_break_in_label_stays_a_comment(self, tmp_path, label):
        # a label's line breaks become comment lines, so its text is never read as a value
        path = tmp_path / "pool.txt"
        write_pool_file(EmpiricalProbabilityPool([0.1, 0.2], label), path)
        assert load_empirical_pool(path).probabilities.tolist() == [0.1, 0.2]

    def test_failed_write_keeps_the_earlier_file_and_leaves_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "pool.txt"
        write_pool_file(EmpiricalProbabilityPool([0.1, 0.2], "old"), path)
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            write_pool_file(EmpiricalProbabilityPool([0.3, 0.4], "new"), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["pool.txt"]


class TestPoolBuiltDirectly:
    """A pool checks its values when it is built, however it is built, naming itself."""

    @pytest.mark.parametrize("values, message", [
        ([1.5, 0.2], "pool 'bad'[0] = 1.5 lies outside [0, 1] by more than 1e-12"),
        ([0.2, -2.0], "pool 'bad'[1] = -2.0 lies outside [0, 1] by more than 1e-12"),
        ([0.2, float("nan")], "pool 'bad'[1] is not finite: nan"),
        ([], "pool 'bad' must contain at least one element"),
        ([[0.1, 0.2]], "pool 'bad' must be one-dimensional, got shape (1, 2)"),
        (["a"], "pool 'bad' must hold numbers only: could not convert string to float: 'a'"),
    ], ids=["above-one", "negative", "nan", "empty", "2-d", "not-a-number"])
    def test_bad_values_are_refused_naming_the_pool(self, values, message):
        with pytest.raises(ValidationError) as info:
            EmpiricalProbabilityPool(values, "bad")
        assert str(info.value) == message

    def test_a_list_is_stored_read_only_with_its_mean(self):
        values = [0.1, 0.2, 0.6]
        pool = EmpiricalProbabilityPool(values, "listed")
        assert pool.probabilities.dtype == np.float64
        assert pool.probabilities.tolist() == values
        assert not pool.probabilities.flags.writeable
        assert pool.nominal_incidence == np.mean(values)
        assert pool.size == 3
        assert TrueDistributionSpec.empirical(pool).label == "empirical(listed)"

    def test_the_callers_array_is_copied_not_frozen(self):
        values = np.array([0.1, 0.2])
        pool = EmpiricalProbabilityPool(values, "copied")
        values[0] = 0.9
        assert pool.probabilities.tolist() == [0.1, 0.2]
        assert pool.nominal_incidence == np.mean([0.1, 0.2])

    @pytest.mark.parametrize("label", [5, "", None, b"bytes"])
    def test_a_label_that_is_not_a_nonempty_string_is_refused(self, label):
        # it would name the pool's scenarios and results files
        with pytest.raises(ValidationError) as info:
            EmpiricalProbabilityPool([0.1, 0.2], label)
        assert str(info.value) == f"a pool label must be a non-empty string, got {label!r}"

    @pytest.mark.parametrize("label", ["a\udc80b", "\ud800", "\udfff"])
    def test_a_label_utf8_cannot_encode_is_refused(self, label):
        # its summary row could not be written, which would fail a study only after every block ran
        with pytest.raises(ValidationError) as info:
            EmpiricalProbabilityPool([0.1, 0.2], label)
        assert str(info.value) == f"a pool label must be text that UTF-8 can encode, got {label!r}"

    @pytest.mark.parametrize(
        "label", ["a\x01b", "\x00", "\x08", "\x0b", "\x0c", "\x0e", "x\x1f", "\ufffe", "a\uffffb"]
    )
    def test_a_label_xml_cannot_hold_is_refused(self, label):
        # it names the pool's scenarios in every SVG figure, which no XML parser would then read
        with pytest.raises(ValidationError) as info:
            EmpiricalProbabilityPool([0.1, 0.2], label)
        assert str(info.value) == f"a pool label must be text that XML 1.0 can hold, got {label!r}"

    @pytest.mark.parametrize(
        "label", ["ost\u00e9o", "\ud7ff", "\ue000", "bone \U0001f9b4", "a\tb", "a\nb", "a\rb", "\ufffd", "\U00010000"]
    )
    def test_a_label_of_any_other_code_points_is_taken(self, label):
        assert TrueDistributionSpec.empirical(EmpiricalProbabilityPool([0.1], label)).label == f"empirical({label})"

    def test_a_pool_file_name_that_is_not_utf8_is_refused_as_a_label(self, tmp_path):
        path = tmp_path / os.fsdecode(b"a\x80b.txt")  # read back with a lone surrogate in its stem
        try:
            path.write_text("0.1\n0.2\n")
        except (OSError, UnicodeEncodeError):
            pytest.skip("this file system takes UTF-8 file names only")
        with pytest.raises(ValidationError) as info:
            load_empirical_pool(path)
        assert str(info.value) == "a pool label must be text that UTF-8 can encode, got 'a\\udc80b'"
        assert load_empirical_pool(path, label="given").label == "given"

    def test_a_pool_file_name_xml_cannot_hold_is_refused_as_a_label(self, tmp_path):
        path = tmp_path / "a\x01b.txt"
        try:
            path.write_text("0.1\n0.2\n")
        except OSError:
            pytest.skip("this file system refuses control characters in file names")
        with pytest.raises(ValidationError) as info:
            load_empirical_pool(path)
        assert str(info.value) == "a pool label must be text that XML 1.0 can hold, got 'a\\x01b'"
        assert load_empirical_pool(path, label="given").label == "given"

    def test_nominal_incidence_is_derived_not_passed(self):
        with pytest.raises(TypeError):
            EmpiricalProbabilityPool([0.1, 0.2], "given", 0.5)

    @pytest.mark.parametrize("pool", [[0.1, 0.2], np.array([0.1, 0.2]), None], ids=["list", "array", "none"])
    def test_empirical_spec_refuses_what_is_not_a_pool(self, pool):
        for build in (lambda: TrueDistributionSpec("empirical", pool=pool), lambda: TrueDistributionSpec.empirical(pool)):
            with pytest.raises(ValidationError, match="^an empirical true distribution takes a pool and no params$"):
                build()


class TestSyntheticPool:
    @pytest.mark.parametrize("incidence", [0.07, 0.263])
    def test_mean_matches_target(self, incidence):
        pool = make_synthetic_pool(incidence, size=5000, rng=11)
        assert pool.nominal_incidence == pytest.approx(incidence, abs=1e-9)
        assert pool.probabilities.min() > 0.0
        assert pool.probabilities.max() < 1.0

    def test_heterogeneous_risks(self):
        pool = make_synthetic_pool(0.263, size=5000, rng=11)
        assert np.std(pool.probabilities) > 0.05

    def test_target_validated(self):
        with pytest.raises(ValidationError):
            make_synthetic_pool(0.0, size=10, rng=0)

    @pytest.mark.parametrize("argument, message", [
        ({"size": 2.5}, "pool size must be an integer, got 2.5"),
        ({"size": True}, "pool size must be an integer, got True"),
        ({"size": 0}, "pool size must be >= 1, got 0"),
        ({"spread": -1.0}, "spread must be finite and nonnegative, got -1.0"),
        ({"spread": float("nan")}, "spread must be finite and nonnegative, got nan"),
        ({"spread": float("inf")}, "spread must be finite and nonnegative, got inf"),
        # a string is shown as its repr, quoted, so that it cannot pass for the number it spells
        ({"spread": "1"}, "spread must be finite and nonnegative, got '1'"),
        ({"target_incidence": "0.5"}, "target incidence must lie in (0, 1), got '0.5'"),
        # a seed is checked as every seed is: numpy would take True as 1
        ({"rng": True}, "seed must be an integer, got True"),
        ({"rng": -1}, "seed must be >= 0, got -1"),
        ({"rng": 1.5}, "seed must be an integer, got 1.5"),
    ], ids=repr)
    def test_bad_argument_raises_validation_error(self, argument, message):
        with pytest.raises(ValidationError) as info:
            make_synthetic_pool(**{"target_incidence": 0.3, "size": 10, "rng": 0, **argument})
        assert str(info.value) == message

    @pytest.mark.parametrize("target, spread", [(1e-20, 1.0), (0.3, 1000.0), (0.3, 1e6)], ids=repr)
    def test_unreachable_target_is_refused(self, target, spread):
        # the shift is bisected in [-40, 40]; at spread 1e6, exp overflows without a warning
        with pytest.raises(ValidationError) as info:
            make_synthetic_pool(target, size=1000, spread=spread, rng=1)
        prefix = f"target incidence {target} is out of reach at spread {spread}: the pool's mean is "
        assert str(info.value).startswith(prefix)
        reached = float(str(info.value)[len(prefix):])
        assert abs(reached - target) > 1e-9 * target

    def test_rng_takes_a_generator_or_a_seed(self):
        from_seed = make_synthetic_pool(0.3, size=50, rng=7)
        from_generator = make_synthetic_pool(0.3, size=50, rng=np.random.default_rng(7))
        assert np.array_equal(from_seed.probabilities, from_generator.probabilities)
        with pytest.raises(TypeError):  # one way to seed it, not two
            make_synthetic_pool(0.3, size=50, seed=7)

    def test_zero_spread_gives_a_constant_pool(self):
        assert np.allclose(make_synthetic_pool(0.3, size=10, spread=0.0, rng=0).probabilities, 0.3)
