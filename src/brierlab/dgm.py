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
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientPoolError, ValidationError
from .validation import as_probability_vector, names_undecodable_file

__all__ = [
    "EmpiricalProbabilityPool",
    "TrueDistributionSpec",
    "TRUE_DISTRIBUTION_FIELDS",
    "PredictorTransformSpec",
    "PREDICTOR_TRANSFORM_FIELDS",
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
    """A fixed pool of probabilities that scenarios subsample without replacement."""

    probabilities: np.ndarray
    label: str
    nominal_incidence: float

    @property
    def size(self) -> int:
        return int(self.probabilities.size)


def _make_pool(values, label: str) -> EmpiricalProbabilityPool:
    probs = as_probability_vector(values, f"pool {label!r}")
    probs.setflags(write=False)
    return EmpiricalProbabilityPool(
        probabilities=probs, label=label, nominal_incidence=float(np.mean(probs))
    )


@dataclass(frozen=True)
class TrueDistributionSpec:
    """How true probabilities q_i are drawn for one scenario."""

    kind: str
    params: tuple[float, ...] = ()
    pool: EmpiricalProbabilityPool | None = None
    label: str = ""

    @classmethod
    def uniform(cls, a: float, b: float) -> "TrueDistributionSpec":
        if not (0.0 <= a < b <= 1.0):
            raise ValidationError(f"uniform bounds need 0 <= a < b <= 1, got ({a}, {b})")
        return cls(kind="uniform", params=(float(a), float(b)), label=f"uniform({a:g},{b:g})")

    @classmethod
    def beta(cls, alpha: float, beta: float) -> "TrueDistributionSpec":
        if not (alpha > 0 and beta > 0):
            raise ValidationError(f"beta shapes must be positive, got ({alpha}, {beta})")
        return cls(kind="beta", params=(float(alpha), float(beta)), label=f"beta({alpha:g},{beta:g})")

    @classmethod
    def constant(cls, c: float) -> "TrueDistributionSpec":
        if not (0.0 <= c <= 1.0):
            raise ValidationError(f"constant value must lie in [0, 1], got {c}")
        return cls(kind="constant", params=(float(c),), label=f"constant({c:g})")

    @classmethod
    def two_point(cls, v0: float, v1: float, w: float) -> "TrueDistributionSpec":
        """Value v1 with probability w, otherwise v0."""
        for name, val in (("v0", v0), ("v1", v1), ("w", w)):
            if not (0.0 <= val <= 1.0):
                raise ValidationError(f"two_point {name} must lie in [0, 1], got {val}")
        return cls(
            kind="two_point",
            params=(float(v0), float(v1), float(w)),
            label=f"two_point({v0:g},{v1:g},{w:g})",
        )

    @classmethod
    def empirical(cls, pool: EmpiricalProbabilityPool) -> "TrueDistributionSpec":
        if pool.size < 1:
            raise ValidationError("empirical pool must be nonempty")
        return cls(kind="empirical", pool=pool, label=f"empirical({pool.label})")


@dataclass(frozen=True)
class PredictorTransformSpec:
    """How predictions p_i are derived from the true probabilities q_i."""

    kind: str
    params: tuple[float, ...] = ()
    label: str = ""

    @classmethod
    def perfect(cls) -> "PredictorTransformSpec":
        return cls(kind="perfect", label="perfect")

    @classmethod
    def additive_bias(cls, delta: float) -> "PredictorTransformSpec":
        if not (math.isfinite(delta) and abs(delta) < 1.0):
            raise ValidationError(f"bias delta must satisfy |delta| < 1, got {delta}")
        return cls(kind="additive_bias", params=(float(delta),), label=f"bias({delta:+g})")

    @classmethod
    def uniform_noise(cls, half_width: float) -> "PredictorTransformSpec":
        if not (0.0 < half_width < 1.0):
            raise ValidationError(f"noise half width must lie in (0, 1), got {half_width}")
        return cls(kind="uniform_noise", params=(float(half_width),), label=f"unif_noise({half_width:g})")

    @classmethod
    def rademacher_noise(cls, magnitude: float) -> "PredictorTransformSpec":
        if not (math.isfinite(magnitude) and magnitude > 0.0):
            raise ValidationError(f"noise magnitude must be positive, got {magnitude}")
        return cls(kind="rademacher_noise", params=(float(magnitude),), label=f"rademacher({magnitude:g})")


# Each parametric kind -> its constructor's field names, in argument order.
# A kind is also the name of its classmethod on the spec class; "empirical"
# is absent because it takes a pool, not numbers.
TRUE_DISTRIBUTION_FIELDS: dict[str, tuple[str, ...]] = {
    "uniform": ("a", "b"),
    "beta": ("alpha", "beta"),
    "constant": ("c",),
    "two_point": ("v0", "v1", "w"),
}
PREDICTOR_TRANSFORM_FIELDS: dict[str, tuple[str, ...]] = {
    "perfect": (),
    "additive_bias": ("delta",),
    "uniform_noise": ("half_width",),
    "rademacher_noise": ("magnitude",),
}


def sample_true_probs(spec: TrueDistributionSpec, size, rng: np.random.Generator) -> np.ndarray:
    """Draw true probabilities of shape ``size`` (an int n or a tuple ending in n).

    Parametric kinds draw independently; the empirical kind subsamples the
    pool without replacement within each length-n row and therefore requires
    pool size >= n. Every row is a fresh subsample, drawn in row order from
    the one stream, mirroring the iid treatment of the parametric kinds.
    """
    shape = (size,) if np.ndim(size) == 0 else tuple(size)
    n = shape[-1]
    if n < 1:
        raise ValidationError(f"sample size must be >= 1, got {n}")
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
        pool = spec.pool
        if pool.size < n:
            raise InsufficientPoolError(
                f"pool {pool.label!r} has {pool.size} values, cannot subsample {n} "
                "without replacement"
            )
        # One choice per row: for 100 rows of a 5000-value pool on a 2-vCPU
        # x86-64 VM, argpartition of random keys took 2-4x and
        # Generator.permuted 3-6x as long (numpy 2.4).
        q = np.empty(shape)
        for row in q.reshape(-1, n):
            row[:] = rng.choice(pool.probabilities, size=n, replace=False)
        return q
    raise ValidationError(f"unknown true-distribution kind {spec.kind!r}")


def apply_predictor_transform(
    q: np.ndarray, spec: PredictorTransformSpec, rng: np.random.Generator
) -> np.ndarray:
    """Derive predictions from true probabilities of any shape, clamping to [0, 1] last.

    perfect copies q; additive_bias adds a constant; uniform_noise adds
    independent Uniform(-h, h) noise; rademacher_noise adds +/-magnitude with
    equal probability. Clamping happens after the noise or bias is applied.
    """
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
        raise ValidationError(f"unknown predictor-transform kind {spec.kind!r}")
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
    line; an empty file (after comments) raises too.
    """
    values: list[float] = []
    with open(path) as fh:
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
        label = _stem(path)
    return _make_pool(values, label)


def write_pool_file(pool: EmpiricalProbabilityPool, path, comment: str | None = None) -> None:
    """Write a pool in the same format load_empirical_pool reads."""
    with open(path, "w") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        fh.write(f"# label: {pool.label}\n")
        fh.write(f"# nominal incidence: {pool.nominal_incidence!r}\n")
        for value in pool.probabilities:
            fh.write(f"{float(value)!r}\n")


def _stem(path) -> str:
    name = str(path).replace("\\", "/").rsplit("/", 1)[-1]
    return name.rsplit(".", 1)[0] if "." in name else name


def make_synthetic_pool(
    target_incidence: float,
    size: int = 5000,
    spread: float = 1.0,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    label: str | None = None,
) -> EmpiricalProbabilityPool:
    """Generate a logistic-style probability pool with an exact mean.

    Draws a linear predictor z ~ Normal(0, spread), then shifts it by a
    constant found by bisection so that mean(sigmoid(z + shift)) equals
    ``target_incidence`` to ~1e-12. A synthetic stand-in for pools of fitted
    per-subject risks; clearly labeled as such.
    """
    if not (0.0 < target_incidence < 1.0):
        raise ValidationError(f"target incidence must lie in (0, 1), got {target_incidence}")
    if size < 1:
        raise ValidationError(f"pool size must be >= 1, got {size}")
    if rng is None:
        rng = np.random.default_rng(seed)
    z = rng.normal(0.0, spread, size)

    def mean_at(shift: float) -> float:
        return float(np.mean(1.0 / (1.0 + np.exp(-(z + shift)))))

    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_at(mid) < target_incidence:
            lo = mid
        else:
            hi = mid
    shift = 0.5 * (lo + hi)
    probs = 1.0 / (1.0 + np.exp(-(z + shift)))
    if label is None:
        label = f"synthetic-{target_incidence:g}"
    return _make_pool(probs, label)
