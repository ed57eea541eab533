"""Exact information-theoretic quantities over dense categorical joint tables.

The central object is :class:`JointDistribution`, a dense probability table
over p categorical input variables and one categorical output (always the
last axis).  Variable subsets are plain integer bitmasks over the input
indices 0..p-1; the output can be addressed as pseudo-index p where a
function documents that it accepts it.  All quantities are in bits.
"""

from collections.abc import Iterable, Mapping

import numpy as np

from .errors import (
    EmptyDataset,
    InternalConsistencyError,
    PlayerCountTooLarge,
    ZeroProbabilityContext,
    ZeroProbabilityInstance,
)

# Probabilities below this are treated as exact zeros (0*log 0 := 0).
PROB_EPS = 1e-15
# Negative MI within this of zero is rounding noise and clamps to 0.
CLAMP_TOL = 1e-10
# Dense tables larger than this are rejected before they are allocated.
MAX_CELLS = 1 << 27
# Exact enumeration over all 2^p feature subsets stops here.
MAX_FEATURES = 20


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


def mask_size(mask: int) -> int:
    return int(mask).bit_count()


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
        n_cells = int(np.prod([float(a) for a in arities]))
        if n_cells > MAX_CELLS:
            raise ValueError(f"table of {n_cells} cells exceeds limit {MAX_CELLS}")
        table = np.asarray(probs, dtype=np.float64)
        if table.size != n_cells:
            raise ValueError(
                f"probability table has {table.size} cells, arities imply {n_cells}"
            )
        table = table.reshape(arities).copy()
        if table.min() < 0.0:
            raise ValueError("probabilities must be nonnegative")
        total = float(table.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
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

    def constant_inputs(self) -> tuple:
        """Input indices whose marginal puts all mass on a single category."""
        flagged = []
        for m in range(self.p):
            if np.count_nonzero(self.marginal(1 << m)) <= 1:
                flagged.append(m)
        return tuple(flagged)

    def marginal(self, subset) -> np.ndarray:
        """Marginal table over `subset` (may include the output index p).

        Axes of the result follow ascending variable index, output last.
        """
        mask = as_mask(subset, self.p + 1)
        keep = set(mask_members(mask))
        drop = tuple(i for i in range(self.p + 1) if i not in keep)
        return self.table.sum(axis=drop) if drop else self.table

    def prob_of(self, values: Mapping[int, int]) -> float:
        """Probability of a partial assignment {variable index: category}."""
        return float(self._slice(values).sum())

    def cond_output_dist(self, values: Mapping[int, int]) -> np.ndarray:
        """P(Y | assignment); raises ZeroProbabilityContext on impossible context."""
        if self.p in values:
            raise ValueError("cannot condition the output on itself")
        sub = self._slice(values)
        drop = tuple(range(sub.ndim - 1))
        dist = sub.sum(axis=drop) if drop else sub
        total = float(dist.sum())
        if total <= 0.0:
            raise ZeroProbabilityContext(
                f"assignment {dict(values)} has probability 0"
            )
        return dist / total

    def _slice(self, values: Mapping[int, int]) -> np.ndarray:
        index = []
        for axis, arity in enumerate(self.arities):
            if axis in values:
                v = int(values[axis])
                if not 0 <= v < arity:
                    raise ValueError(
                        f"value {v} out of range for variable {axis} (arity {arity})"
                    )
                index.append(v)
            else:
                index.append(slice(None))
        return self.table[tuple(index)]

    def instance_probs(self, instances) -> tuple:
        """Validated full instances and their probabilities P(V = x).

        `instances` is a sequence of full input configurations, each p
        integer codes within the variable's arity.  Returns the codes as an
        (n, p) integer array and the n probabilities; raises
        ZeroProbabilityInstance when some instance has probability 0.
        """
        xs = np.asarray(instances)
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


def _plogp_sum(probs: np.ndarray) -> float:
    """-sum p log2 p with the 0 log 0 := 0 convention."""
    pos = probs[probs > 0.0]
    return float(-(pos * np.log2(pos)).sum()) + 0.0


def entropy(j: JointDistribution, subset) -> float:
    """Joint Shannon entropy of the variables in `subset`, in bits.

    The output variable may be addressed as index p.  The empty subset
    has zero entropy.
    """
    mask = as_mask(subset, j.p + 1)
    if mask == 0:
        return 0.0
    return _plogp_sum(j.marginal(mask))


def cond_entropy_mean(j: JointDistribution, target, given) -> float:
    """Mean conditional entropy H(target | given) = -sum P(t,g) log2 P(t|g)."""
    t_mask = as_mask(target, j.p + 1)
    g_mask = as_mask(given, j.p + 1)
    if t_mask & g_mask:
        raise ValueError("target and conditioning subsets overlap")
    if t_mask == 0:
        return 0.0
    if g_mask == 0:
        return entropy(j, t_mask)
    both = j.marginal(t_mask | g_mask)
    members = mask_members(t_mask | g_mask)
    t_axes = tuple(i for i, v in enumerate(members) if (t_mask >> v) & 1)
    given_marg = both.sum(axis=t_axes)
    denom = np.expand_dims(given_marg, t_axes)
    denom = np.broadcast_to(denom, both.shape)
    pos = both > 0.0
    vals = both[pos]
    return float(-(vals * (np.log2(vals) - np.log2(denom[pos]))).sum()) + 0.0


def cond_entropy_at(j: JointDistribution, target, values: Mapping[int, int]) -> float:
    """Pointwise conditional entropy of `target` given a concrete assignment.

    Raises ZeroProbabilityContext when the assignment has probability zero.
    Currently the target must be the output variable.
    """
    t_mask = as_mask(target, j.p + 1)
    if t_mask != (1 << j.p):
        raise ValueError("pointwise conditional entropy supports the output target only")
    if any(k in values for k in (j.p,)):
        raise ValueError("cannot condition the output on itself")
    return _plogp_sum(j.cond_output_dist(values))


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


def mutual_info(j: JointDistribution, target, subset) -> float:
    """I(target; subset) = H(target) - H(target | subset), clamped at 0."""
    t_mask = as_mask(target, j.p + 1)
    value = entropy(j, t_mask) - cond_entropy_mean(j, t_mask, subset)
    return float(clamp_mi(value, "mutual information"))


def cond_mutual_info(j: JointDistribution, target, m: int, given) -> float:
    """Mean conditional mutual information I(target; X_m | given)."""
    g_mask = as_mask(given, j.p + 1)
    m_bit = 1 << int(m)
    if g_mask & m_bit:
        raise ValueError(f"variable {m} appears in the conditioning subset")
    t_mask = as_mask(target, j.p + 1)
    value = cond_entropy_mean(j, t_mask, g_mask) - cond_entropy_mean(
        j, t_mask, g_mask | m_bit
    )
    return float(clamp_mi(value, "conditional mutual information"))


def joint_from_samples(dataset, name: str | None = None) -> JointDistribution:
    """Empirical plug-in joint from a categorical dataset (weights honoured).

    When the dataset enumerates a population exactly, the result is the
    population distribution itself.
    """
    numeric = [c.name for c in dataset.columns if c.kind != "categorical"]
    if numeric:
        raise ValueError(
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
    flat_index = np.ravel_multi_index(
        tuple(col.astype(np.intp) for col in dataset.data), arities
    )
    n_cells = int(np.prod(arities))
    probs = np.bincount(flat_index, weights=weights, minlength=n_cells) / total
    return JointDistribution(arities, probs, name=name or dataset.name)
