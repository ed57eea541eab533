"""Dense categorical joint tables and the subset-mask helpers over them.

The central object is :class:`JointDistribution`, a dense probability table
over p categorical input variables and one categorical output (always the
last axis).  Variable subsets are plain integer bitmasks over the input
indices 0..p-1; the output can be addressed as pseudo-index p where a
function documents that it accepts it.  Conditional entropies and mutual
informations (in bits) are read from `impurity.subset_lattice`.
"""

from collections.abc import Iterable

import numpy as np

from .errors import (
    EmptyDataset,
    InternalConsistencyError,
    InvalidValue,
    PlayerCountTooLarge,
    TableTooLarge,
    UnnormalizedTable,
    ZeroProbabilityInstance,
)

# Probabilities below this are treated as exact zeros (0*log 0 := 0).
PROB_EPS = 1e-15
# Floor for divisors and log arguments: max(x, GUARD) = x for every mass or
# conditional of at least about PROB_EPS, and 0 / GUARD = 0.  The smallest
# normal double, as denormals-are-zero would read a subnormal as 0.
GUARD = np.finfo(np.float64).tiny
# A table summing to within SUM_TOL of 1 is kept as given; one off by up to
# RENORMALIZE_TOL (say, probabilities written to 6 significant digits) is
# divided by its sum; anything further off is refused.
SUM_TOL = 1e-12
RENORMALIZE_TOL = 1e-6
# Negative MI within this of zero is rounding noise and clamps to 0.
CLAMP_TOL = 1e-10
# Dense tables larger than this are rejected before they are allocated.
MAX_CELLS = 1 << 27
# Exact enumeration over all 2^p feature subsets stops here.
MAX_FEATURES = 20


def cell_count(arities) -> int:
    """Cells of a dense table over `arities`; refuses more than MAX_CELLS."""
    n_cells = int(np.prod([float(a) for a in arities]))
    if n_cells > MAX_CELLS:
        raise TableTooLarge(f"table of {n_cells} cells exceeds limit {MAX_CELLS}")
    return n_cells


def cell_sums(codes, arities, weights) -> np.ndarray:
    """Flat table of `weights` summed per configuration of `codes` (one array
    per variable), in input order as `table[cfg] += w` would add them."""
    n_cells = cell_count(arities)
    flat = np.ravel_multi_index(tuple(np.asarray(c, np.intp) for c in codes), arities)
    return np.bincount(flat, weights=weights, minlength=n_cells)


def check_feature_count(p: int) -> None:
    """Reject more features (players) than exact 2^p enumeration supports."""
    if p > MAX_FEATURES:
        raise PlayerCountTooLarge(
            f"{p} features exceed the exact-enumeration limit {MAX_FEATURES}"
        )


def as_mask(subset, nvars: int) -> int:
    """Normalize a subset given as a bitmask or an iterable of indices.

    Only bits below `nvars` may be set.
    """
    if isinstance(subset, (int, np.integer)):
        mask = int(subset)
        if mask < 0 or mask >> nvars:
            raise ValueError(f"subset mask {mask:#x} has bits >= {nvars}")
        return mask
    if isinstance(subset, Iterable):
        mask = 0
        for i in subset:
            i = int(i)
            if not 0 <= i < nvars:
                raise ValueError(f"variable index {i} out of range 0..{nvars - 1}")
            mask |= 1 << i
        return mask
    raise TypeError(f"subset must be an int mask or an iterable, got {type(subset)}")


def mask_members(mask: int):
    """Indices of the set bits, ascending."""
    return tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def subset_sizes(p: int) -> np.ndarray:
    """|S| for every subset mask S = 0 .. 2^p - 1."""
    masks = np.arange(1 << p)
    sizes = np.zeros(1 << p, dtype=np.int64)
    for b in range(p):
        sizes += (masks >> b) & 1
    return sizes


def extension_pairs(p: int, m: int) -> tuple:
    """Masks of every subset B of 0..p-1 without m, ascending, and of B + m."""
    masks = np.arange(1 << p)
    without = masks[(masks >> m) & 1 == 0]
    return without, without | (1 << m)


def submasks(mask: int):
    """All submasks of `mask`, including 0 and `mask` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


class JointDistribution:
    """Dense joint probability table P(X_0, ..., X_{p-1}, Y).

    The table is stored as an ndarray whose shape equals `arities`
    (inputs first, output last), so C-order flattening is exactly the
    mixed-radix indexing of configurations.  Instances are immutable and
    safe to share across threads.
    """

    def __init__(self, arities, probs, name: str | None = None):
        arities = tuple(int(a) for a in arities)
        if len(arities) < 2:
            raise ValueError("need at least one input variable and the output")
        if any(a < 1 for a in arities):
            raise ValueError(f"arities must be >= 1, got {arities}")
        n_cells = cell_count(arities)
        table = np.asarray(probs, dtype=np.float64)
        if table.size != n_cells:
            raise ValueError(
                f"probability table has {table.size} cells, arities imply {n_cells}"
            )
        table = table.reshape(arities).copy()
        if not (table >= 0.0).all():  # NaN fails every comparison
            raise InvalidValue("probabilities must be nonnegative numbers")
        total = float(table.sum())
        if abs(total - 1.0) > RENORMALIZE_TOL:
            raise UnnormalizedTable(
                f"probabilities sum to {total!r}, expected 1 within {RENORMALIZE_TOL}"
            )
        if abs(total - 1.0) > SUM_TOL:
            table /= total
        table[table < PROB_EPS] = 0.0
        table.setflags(write=False)
        self.arities = arities
        self.table = table
        self.p = len(arities) - 1
        self.name = name

    @property
    def output_arity(self) -> int:
        return self.arities[-1]

    @property
    def input_arities(self) -> tuple:
        return self.arities[:-1]

    def marginal(self, subset) -> np.ndarray:
        """Marginal table over `subset` (may include the output index p).

        Axes of the result follow ascending variable index, output last.
        """
        mask = as_mask(subset, self.p + 1)
        keep = set(mask_members(mask))
        drop = tuple(i for i in range(self.p + 1) if i not in keep)
        return self.table.sum(axis=drop) if drop else self.table

    def instance_probs(self, instances) -> tuple:
        """Validated full instances and their probabilities P(V = x).

        `instances` is a sequence of full input configurations, each p
        integer codes within the variable's arity.  Returns the codes as an
        (n, p) integer array and the n probabilities; raises
        ZeroProbabilityInstance when some instance has probability 0.
        """
        xs = np.array(instances)  # a copy: the caller's array stays its own
        if xs.ndim != 2 or xs.shape[1] != self.p:
            got = xs.shape[-1] if xs.ndim else 0
            raise ValueError(f"instance has {got} values, expected {self.p}")
        if xs.size and xs.dtype.kind not in "iu":
            raise ValueError(f"instance values must be integer codes, got {xs.dtype}")
        arities = np.array(self.input_arities)
        bad = (xs < 0) | (xs >= arities)
        if bad.any():
            row, axis = (int(v) for v in np.argwhere(bad)[0])
            raise ValueError(
                f"value {int(xs[row, axis])} out of range for variable {axis} "
                f"(arity {arities[axis]})"
            )
        probs = self.table[tuple(xs.T)].sum(axis=-1)
        if (probs <= 0.0).any():
            x = tuple(int(v) for v in xs[int(np.argmin(probs > 0.0))])
            raise ZeroProbabilityInstance(
                f"instance {x} has probability 0 under the joint"
            )
        return xs, probs

    def positive_instances(self):
        """All full input configurations x with P(V = x) > 0, row-major order."""
        inputs = self.marginal(tuple(range(self.p)))
        return [tuple(int(v) for v in idx) for idx in np.argwhere(inputs > 0.0)]

    def fingerprint(self) -> str:
        """Content hash over arities and the probability table."""
        import hashlib

        h = hashlib.sha256()
        h.update(repr(self.arities).encode())
        h.update(self.table.tobytes())
        return h.hexdigest()[:16]

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"JointDistribution(p={self.p}, arities={self.arities}{tag})"


def clamp_mi(value, label: str):
    """Clamp rounding noise in a mutual information (or an array of them).

    Values in (-CLAMP_TOL, 0) become 0; anything lower raises
    InternalConsistencyError, since rounding alone cannot explain it.
    """
    worst = float(np.min(value))
    if worst <= -CLAMP_TOL:
        raise InternalConsistencyError(
            f"{label} = {worst!r} is negative beyond tolerance"
        )
    return np.maximum(value, 0.0)


def joint_from_samples(dataset, name: str | None = None) -> JointDistribution:
    """Empirical plug-in joint from a categorical dataset (weights honoured).

    When the dataset enumerates a population exactly, the result is the
    population distribution itself.
    """
    numeric = [c.name for c in dataset.columns if c.kind != "categorical"]
    if numeric:
        raise InvalidValue(
            f"columns {numeric} are numeric; quantize them before building a joint"
        )
    if dataset.n_rows == 0:
        raise EmptyDataset("cannot estimate a joint from zero rows")
    arities = tuple(c.arity for c in dataset.columns)
    weights = dataset.weights
    if weights is None:
        weights = np.ones(dataset.n_rows)
    total = float(weights.sum())
    if total <= 0.0:
        raise EmptyDataset("dataset has zero total weight")
    probs = cell_sums(dataset.data, arities, weights) / total
    return JointDistribution(arities, probs, name=name or dataset.name)
