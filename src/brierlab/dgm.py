"""Data-generating mechanisms for the simulation study.

Three sampling steps make up one replication: draw true probabilities q from
a chosen distribution, derive predictions p from q through a transform (with
clamping to [0, 1] applied after any noise or bias), and draw the outcomes
y_i ~ Bernoulli(q_i). Every sampling function takes an explicit random
stream; streams are derived from a root seed by a counter-style address so
that any parallel schedule reproduces bit-identical draws.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import InsufficientPoolError, ValidationError
from .validation import (
    NOT_XML_CHAR, TEXT_ENCODING, as_probability_vector, check_count, commit_text, is_integer, is_real,
    names_undecodable_file, shown,
)

__all__ = [
    "EmpiricalProbabilityPool",
    "Kind",
    "TrueDistributionSpec",
    "TRUE_DISTRIBUTIONS",
    "PredictorTransformSpec",
    "PREDICTOR_TRANSFORMS",
    "derive_stream",
    "sample_true_probs",
    "apply_predictor_transform",
    "sample_outcomes",
    "load_empirical_pool",
    "write_pool_file",
    "make_synthetic_pool",
]


def derive_stream(root_seed: int, *key: int) -> np.random.Generator:
    """Independent generator addressed by (root_seed, key).

    The same root seed and key always give the same stream, regardless of
    which worker asks for it or in what order, which is what makes the
    simulation engine reproducible under any parallel schedule.
    """
    return np.random.default_rng(np.random.SeedSequence(root_seed, spawn_key=tuple(key)))


@dataclass(frozen=True, eq=False)
class EmpiricalProbabilityPool:
    """A fixed pool of probabilities that scenarios subsample without replacement; checked when built."""

    probabilities: np.ndarray  # stored read-only, as float64
    label: str
    nominal_incidence: float = field(init=False)  # the mean of the probabilities

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise ValidationError(f"a pool label must be a non-empty string, got {shown(self.label)}")
        if any("\ud800" <= char <= "\udfff" for char in self.label):  # the code points UTF-8 cannot encode
            raise ValidationError(f"a pool label must be text that UTF-8 can encode, got {self.label!r}")
        if NOT_XML_CHAR.search(self.label):  # the label names scenarios in SVG figures
            raise ValidationError(f"a pool label must be text that XML 1.0 can hold, got {self.label!r}")
        probs = as_probability_vector(self.probabilities, f"pool {self.label!r}")
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "nominal_incidence", float(np.mean(probs)))

    @property
    def size(self) -> int:
        return int(self.probabilities.size)


@dataclass(frozen=True)
class TrueDistributionSpec:
    """How true probabilities q_i are drawn for one scenario; checked and labelled by its kind's entry."""

    kind: str
    params: tuple[float, ...] = ()
    pool: EmpiricalProbabilityPool | None = None
    label: str = field(init=False)  # the kind's label format of the params, or empirical(<pool label>)

    def __post_init__(self):
        if self.kind != "empirical":
            _check_kind(self, TRUE_DISTRIBUTIONS, "true-distribution")
            if self.pool is not None:
                raise ValidationError(f"true-distribution kind {self.kind!r} draws its own values and takes no pool")
        elif not isinstance(self.pool, EmpiricalProbabilityPool) or self.params:
            raise ValidationError("an empirical true distribution takes a pool and no params")
        else:
            object.__setattr__(self, "label", f"empirical({self.pool.label})")

    @classmethod
    def uniform(cls, a: float, b: float) -> "TrueDistributionSpec":
        return cls("uniform", (a, b))

    @classmethod
    def beta(cls, alpha: float, beta: float) -> "TrueDistributionSpec":
        return cls("beta", (alpha, beta))

    @classmethod
    def constant(cls, c: float) -> "TrueDistributionSpec":
        return cls("constant", (c,))

    @classmethod
    def two_point(cls, v0: float, v1: float, w: float) -> "TrueDistributionSpec":
        """Value v1 with probability w, otherwise v0."""
        return cls("two_point", (v0, v1, w))

    @classmethod
    def empirical(cls, pool: EmpiricalProbabilityPool) -> "TrueDistributionSpec":
        return cls("empirical", pool=pool)


@dataclass(frozen=True)
class PredictorTransformSpec:
    """How predictions p_i are derived from the true probabilities q_i; checked and labelled by its kind's entry."""

    kind: str
    params: tuple[float, ...] = ()
    label: str = field(init=False)  # the kind's label format of the params

    def __post_init__(self):
        _check_kind(self, PREDICTOR_TRANSFORMS, "predictor-transform")

    @classmethod
    def perfect(cls) -> "PredictorTransformSpec":
        return cls("perfect")

    @classmethod
    def additive_bias(cls, delta: float) -> "PredictorTransformSpec":
        return cls("additive_bias", (delta,))

    @classmethod
    def uniform_noise(cls, half_width: float) -> "PredictorTransformSpec":
        return cls("uniform_noise", (half_width,))

    @classmethod
    def rademacher_noise(cls, magnitude: float) -> "PredictorTransformSpec":
        return cls("rademacher_noise", (magnitude,))


class Kind(NamedTuple):
    """One kind of a spec family, defined once: its constructor's field names in argument order, its
    draw, its label (a format of the float params) and its check (params as passed -> error text or None)."""

    fields: tuple[str, ...]
    draw: Callable[..., np.ndarray]
    label: str
    check: Callable[..., str | None]


# Each kind is also the name of its classmethod on the spec class.
# A true distribution draws (params..., shape, rng) -> q. "empirical" is
# absent because it takes a pool, not numbers.
TRUE_DISTRIBUTIONS: dict[str, Kind] = {
    "uniform": Kind(("a", "b"), lambda a, b, shape, rng: rng.uniform(a, b, shape), "uniform({:g},{:g})",
        lambda a, b: None if 0.0 <= a < b <= 1.0 else f"uniform bounds need 0 <= a < b <= 1, got ({a}, {b})"),
    "beta": Kind(("alpha", "beta"), lambda alpha, beta, shape, rng: rng.beta(alpha, beta, shape), "beta({:g},{:g})",
        lambda alpha, beta: None if 0 < alpha < math.inf and 0 < beta < math.inf
        else f"beta shapes must be positive and finite, got ({alpha}, {beta})"),
    "constant": Kind(("c",), lambda c, shape, rng: np.full(shape, c), "constant({:g})",
        lambda c: None if 0.0 <= c <= 1.0 else f"constant value must lie in [0, 1], got {c}"),
    "two_point": Kind(("v0", "v1", "w"), lambda v0, v1, w, shape, rng: np.where(rng.random(shape) < w, v1, v0),
        "two_point({:g},{:g},{:g})", lambda *params: next((f"two_point {name} must lie in [0, 1], got {value}"
            for name, value in zip(("v0", "v1", "w"), params) if not 0.0 <= value <= 1.0), None)),
}
# A transform draws (q, params..., rng) -> p, which apply_predictor_transform clamps.
PREDICTOR_TRANSFORMS: dict[str, Kind] = {
    "perfect": Kind((), lambda q, rng: q.copy(), "perfect", lambda: None),
    "additive_bias": Kind(("delta",), lambda q, delta, rng: q + delta, "bias({:+g})",
        lambda delta: None if -1.0 < delta < 1.0 else f"bias delta must satisfy |delta| < 1, got {delta}"),
    "uniform_noise": Kind(("half_width",), lambda q, h, rng: q + rng.uniform(-h, h, q.shape), "unif_noise({:g})",
        lambda h: None if 0.0 < h < 1.0 else f"noise half width must lie in (0, 1), got {h}"),
    "rademacher_noise": Kind(("magnitude",), lambda q, m, rng: q + m * (1.0 - 2.0 * rng.integers(0, 2, q.shape)),
        "rademacher({:g})", lambda m: None if 0.0 < m < math.inf else f"noise magnitude must be positive, got {m}"),
}


def _check_kind(spec, registry: dict[str, Kind], family: str) -> None:
    """Check spec's kind, arity, real params and then domain (no NaN or +-inf); store float params and label."""
    kind = registry.get(spec.kind) if isinstance(spec.kind, str) else None
    if kind is None:
        raise ValidationError(f"unknown {family} kind {shown(spec.kind)}")
    try:
        arity = len(spec.params)
    except TypeError:  # a bare number or None, not a sequence of params
        arity = None
    if arity != len(kind.fields):
        raise ValidationError(f"{family} kind {spec.kind!r} takes params {kind.fields}, got {shown(spec.params)}")
    if not all(map(is_real, spec.params)):
        raise ValidationError(f"{family} kind {spec.kind!r} takes finite numbers, got {shown(spec.params)}")
    if (message := kind.check(*spec.params)) is not None:
        raise ValidationError(message)
    object.__setattr__(spec, "params", tuple(float(value) for value in spec.params))
    object.__setattr__(spec, "label", kind.label.format(*spec.params))


def sample_true_probs(spec: TrueDistributionSpec, size, rng: np.random.Generator) -> np.ndarray:
    """Draw true probabilities of shape ``size`` (an int n or a tuple ending in n).

    Parametric kinds draw independently; the empirical kind subsamples the
    pool without replacement within each length-n row and therefore requires
    pool size >= n. Every row is a fresh subsample, drawn in row order from
    the one stream, mirroring the iid treatment of the parametric kinds.
    """
    shape = (size,) if np.ndim(size) == 0 else tuple(size)
    if not (shape and all(map(is_integer, shape)) and min(shape) >= 0 and shape[-1] >= 1):
        raise ValidationError(
            f"size must be an integer n >= 1 or a tuple of integers >= 0 ending in n, got {shown(size)}"
        )
    check_count("total size", math.prod(map(int, shape)))  # Python ints: numpy's would wrap
    n = shape[-1]
    if spec.kind != "empirical":
        return TRUE_DISTRIBUTIONS[spec.kind].draw(*spec.params, shape, rng)
    pool = spec.pool
    if pool.size < n:
        raise InsufficientPoolError(
            f"pool {pool.label!r} has {pool.size} values, cannot subsample {n} without replacement"
        )
    # One choice per row: for 100 rows of a 5000-value pool on a 2-vCPU x86-64 VM,
    # argpartition of random keys took 2-4x and Generator.permuted 3-6x as long (numpy 2.4).
    q = np.empty(shape)
    for row in q.reshape(-1, n):
        row[:] = rng.choice(pool.probabilities, size=n, replace=False)
    return q


def apply_predictor_transform(
    q: np.ndarray, spec: PredictorTransformSpec, rng: np.random.Generator
) -> np.ndarray:
    """Derive predictions from true probabilities of any shape, clamping to [0, 1] last.

    perfect copies q; additive_bias adds a constant; uniform_noise adds
    independent Uniform(-h, h) noise; rademacher_noise adds +/-magnitude with
    equal probability. Every kind's result, perfect's too, is clamped after any noise or bias.
    """
    p = PREDICTOR_TRANSFORMS[spec.kind].draw(np.asarray(q, dtype=float), *spec.params, rng)
    return np.clip(p, 0.0, 1.0, out=p)


def sample_outcomes(q: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw independent outcomes y ~ Bernoulli(q), elementwise, as a float 0/1 array of q's shape.

    Every q is validated, on the raveled array, before any draw.
    """
    shape = np.shape(q)
    q = as_probability_vector(np.ravel(q), "true probabilities").reshape(shape)
    return (rng.random(shape) < q).astype(np.float64)


@names_undecodable_file
def load_empirical_pool(path, label: str | None = None) -> EmpiricalProbabilityPool:
    """Read a probability pool file: one decimal per line, '#' comments allowed.

    Any non-numeric or out-of-range entry raises ValidationError naming the
    line; an empty file (after comments) raises too. The label defaults to the
    file name without its last extension (``.pool`` is a name, not an extension).
    """
    values: list[float] = []
    with open(path, encoding=TEXT_ENCODING) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                value = float(line)
            except ValueError:
                raise ValidationError(f"{path}: line {lineno}: non-numeric entry {line!r}") from None
            if not (0.0 <= value <= 1.0):
                raise ValidationError(
                    f"{path}: line {lineno}: probability {value!r} outside [0, 1]"
                )
            values.append(value)
    if not values:
        raise ValidationError(f"{path}: no probabilities found")
    if label is None:
        label = os.path.splitext(os.path.basename(os.fsdecode(path)))[0]
    return EmpiricalProbabilityPool(values, label)


def write_pool_file(pool: EmpiricalProbabilityPool, path, comment: str | None = None) -> None:
    """Write a pool in the format load_empirical_pool reads; each line of a note, a label's too, is a '#' line."""
    notes = [comment or "", f"label: {pool.label}", f"nominal incidence: {pool.nominal_incidence!r}"]
    lines = [f"# {line}\n" for note in notes for line in note.splitlines()]
    commit_text(path, "".join([*lines, *(f"{value!r}\n" for value in pool.probabilities.tolist())]))


def make_synthetic_pool(
    target_incidence: float,
    size: int = 5000,
    spread: float = 1.0,
    rng: np.random.Generator | int | None = None,
    label: str | None = None,
) -> EmpiricalProbabilityPool:
    """Generate a logistic-style probability pool with an exact mean.

    Draws a linear predictor z ~ Normal(0, spread), then shifts it by a
    constant found by bisection in [-40, 40] so that mean(sigmoid(z + shift))
    equals ``target_incidence`` to ~1e-12; a target no such shift meets to 1e-9
    relative raises ValidationError. A synthetic stand-in for pools of fitted
    per-subject risks; clearly labeled as such.
    """
    if not (is_real(target_incidence) and 0.0 < target_incidence < 1.0):
        raise ValidationError(f"target incidence must lie in (0, 1), got {shown(target_incidence)}")
    if not is_integer(size) or size < 1:
        raise ValidationError(f"pool size must be an integer >= 1, got {shown(size)}")
    check_count("pool size", size)
    if not (is_real(spread) and 0.0 <= spread < math.inf):
        raise ValidationError(f"spread must be finite and nonnegative, got {shown(spread)}")
    z = np.random.default_rng(rng).normal(0.0, spread, size)  # a Generator is drawn from as it is, else a seed

    def sigmoid(shift: float) -> np.ndarray:
        with np.errstate(over="ignore"):  # exp overflows to inf where the value's limit, 0, is right
            return 1.0 / (1.0 + np.exp(-(z + shift)))

    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.mean(sigmoid(mid)) < target_incidence:
            lo = mid
        else:
            hi = mid
    label = f"synthetic-{target_incidence:g}" if label is None else label
    pool = EmpiricalProbabilityPool(sigmoid(0.5 * (lo + hi)), label)
    if abs(pool.nominal_incidence - target_incidence) > 1e-9 * target_incidence:
        raise ValidationError(
            f"target incidence {target_incidence} is out of reach at spread {spread}: "
            f"the pool's mean is {pool.nominal_incidence!r}"
        )
    return pool
