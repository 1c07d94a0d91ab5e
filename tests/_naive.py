"""Direct-definition reference implementations used as test oracles.

Everything here is written from the defining sums, with explicit Python
loops where that keeps the code obviously correct.  These routines are
deliberately slow and independent of the library's fast paths; golden
data is produced only through them.
"""

from __future__ import annotations

import numpy as np

from walshcube.hypercube import HypercubeFunction, WalshSpectrum


def character_value(subset: int, point: int) -> float:
    """w_A(eps) as a literal product over the coordinates of A."""
    value = 1.0
    i = 0
    while subset >> i:
        if (subset >> i) & 1:
            value *= -1.0 if (point >> i) & 1 else 1.0
        i += 1
    return value


def forward_double_sum(f: HypercubeFunction) -> np.ndarray:
    """fhat(A) = 2^-n sum_eps f(eps) w_A(eps), as an explicit double loop."""
    size = 1 << f.n
    coeffs = np.zeros((size, f.m))
    for a in range(size):
        acc = np.zeros(f.m)
        for k in range(size):
            acc += f.values[k] * character_value(a, k)
        coeffs[a] = acc / size
    return coeffs


def inverse_double_sum(s: WalshSpectrum) -> np.ndarray:
    """f(eps) = sum_A fhat(A) w_A(eps), as an explicit double loop."""
    size = 1 << s.n
    values = np.zeros((size, s.m))
    for k in range(size):
        acc = np.zeros(s.m)
        for a in range(size):
            acc += s.coefficients[a] * character_value(a, k)
        values[k] = acc
    return values


def butterfly_in_place_order(table: np.ndarray) -> np.ndarray:
    """The unnormalized Walsh butterfly along axis -2, stage by stage in place.

    Stage h = 1, 2, 4, ... replaces each pair (x[k], x[k + h]) whose lower
    index has bit log2(h) clear by (x[k] + x[k + h], x[k] - x[k + h]).  This
    is the library's butterfly before it took Pease's constant-geometry
    order; both add the same operands in the same order, so their outputs
    agree bit for bit.
    """
    rows, columns = table.shape[-2:]
    source = np.array(table, dtype=np.float64).reshape(-1, columns)
    target = np.empty_like(source)
    h = 1
    while h < rows:
        blocks = source.reshape(-1, 2, h, columns)
        halves = target.reshape(blocks.shape)
        np.add(blocks[:, 0], blocks[:, 1], out=halves[:, 0])
        np.subtract(blocks[:, 0], blocks[:, 1], out=halves[:, 1])
        source, target = target, source
        h *= 2
    return source.reshape(table.shape)


def conditional_expectation_sum(f: HypercubeFunction, level: int) -> np.ndarray:
    """The defining average over the trailing coordinates, looped per point."""
    size = 1 << f.n
    out = np.zeros_like(f.values)
    tail = f.n - level
    low_mask = (1 << level) - 1
    for k in range(size):
        acc = np.zeros(f.m)
        for high in range(1 << tail):
            acc += f.values[(k & low_mask) | (high << level)]
        out[k] = acc / (1 << tail)
    return out


def lp_norm_sum(values: np.ndarray, p: float, q: float) -> float:
    """L_p(ell_q) norm over the uniform measure, from the defining sums."""
    point_norms = []
    for row in values:
        if np.isinf(q):
            point_norms.append(np.max(np.abs(row)))
        else:
            point_norms.append(np.sum(np.abs(row) ** q) ** (1.0 / q))
    point_norms = np.asarray(point_norms)
    if np.isinf(p):
        return float(point_norms.max())
    return float(np.mean(point_norms**p) ** (1.0 / p))


def signs_of_mask(mask: int, n: int) -> np.ndarray:
    return np.array([-1.0 if (mask >> i) & 1 else 1.0 for i in range(n)])


def rademacher_average_enumerated(tables: np.ndarray, p: float, q: float) -> float:
    """Sign-enumerated average of || sum_i delta_i t_i ||_{L_p}^p, then the p-th root."""
    count = tables.shape[0]
    total = 0.0
    for mask in range(1 << count):
        delta = signs_of_mask(mask, count)
        combo = np.tensordot(delta, tables, axes=(0, 0))
        total += lp_norm_sum(combo, p, q) ** p
    return (total / (1 << count)) ** (1.0 / p)


def sign_average_per_mask(tables: np.ndarray, p: float, q: float, masks) -> tuple[float, np.ndarray]:
    """(mean over `masks` of || sum_i delta_i t_i ||_{L_p}^p)^(1/p) and its
    gradient with respect to `tables`, one pattern at a time.

    The gradient is the chain rule written out: grad ||c||_q is
    sign(c) |c|^(q-1) / ||c||^(q-1), sign(c) for q = 1, and sign(c_j) at
    the first largest |c_j| for q = inf.
    """
    count, points, _ = tables.shape
    total = 0.0
    inner = np.zeros_like(tables)
    for mask in masks:
        delta = signs_of_mask(int(mask), count)
        combo = np.tensordot(delta, tables, axes=(0, 0))
        a = np.abs(combo)
        if np.isinf(q):
            norms = a.max(axis=1)
            grad = np.zeros_like(combo)
            first = a.argmax(axis=1)
            grad[np.arange(points), first] = np.sign(combo[np.arange(points), first])
        elif q == 1.0:
            norms = a.sum(axis=1)
            grad = np.sign(combo)
        else:
            norms = (a**q).sum(axis=1) ** (1.0 / q)
            grad = np.sign(combo) * a ** (q - 1.0) / norms[:, None] ** (q - 1.0)
        total += np.sum(norms**p) / points
        inner += delta[:, None, None] * (p * norms ** (p - 1.0) / points)[None, :, None] * grad
    mean = total / len(masks)
    value = mean ** (1.0 / p)
    return value, mean ** (1.0 / p - 1.0) / p * inner / len(masks)


def central_difference_gradient(log_value, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Coordinate-wise central differences of a scalar function of a flat vector."""
    gradient = np.empty_like(x)
    for k in range(x.size):
        bump = np.zeros_like(x)
        bump[k] = h
        gradient[k] = (log_value(x + bump) - log_value(x - bump)) / (2.0 * h)
    return gradient


def umd_maximum_per_mask(diffs: np.ndarray, p: float, q: float, probabilities: np.ndarray) -> float:
    """max over sign patterns of || sum_i delta_i d_i ||_{L_p}, one pattern at a time."""
    steps = diffs.shape[0]
    best = -np.inf
    for mask in range(1 << steps):
        combo = np.tensordot(signs_of_mask(mask, steps), diffs, axes=(0, 0))
        if np.isinf(q):
            pointwise = np.max(np.abs(combo), axis=1)
        else:
            pointwise = np.sum(np.abs(combo) ** q, axis=1) ** (1.0 / q)
        best = max(best, float(np.sum(probabilities * pointwise**p) ** (1.0 / p)))
    return best


def ell_q_norms_by_axis_reduce(table: np.ndarray, q: float) -> np.ndarray:
    """ell_q norms along the last axis through numpy's reduce over that axis."""
    a = np.abs(table)
    if np.isinf(q):
        return a.max(axis=-1)
    if q == 1.0:
        return a.sum(axis=-1)
    if q == 2.0:
        return np.sqrt((a * a).sum(axis=-1))
    return (a**q).sum(axis=-1) ** (1.0 / q)


class _NonFiniteValue(Exception):
    pass


def maximize_ratio_sequential(config):
    """The extremal search one draw, one restart and one candidate at a time.

    The library's search before it evaluated batches, kept as its oracle:
    every value comes from `SearchObjective.sides`, every gradient from a
    batch of one row, and each restart climbs to its end before the next
    one starts.  Same-seed certificates of the batched search must equal
    this one's byte for byte.
    """
    from walshcube.estimators import (
        _ASCENT_TOL,
        RatioCertificate,
        SearchFailedError,
        SearchObjective,
        _certificate_digest,
        _freeze,
    )
    from walshcube.norms import DEGENERATE_EPS

    objective = SearchObjective(config)
    rng = np.random.default_rng(config.seed)

    def value(x):
        lhs, rhs = objective.sides(x)
        if not (np.isfinite(lhs) and np.isfinite(rhs)):
            raise _NonFiniteValue
        if rhs < DEGENERATE_EPS:
            return None, lhs, rhs
        return lhs / rhs, lhs, rhs

    def gradient(x):
        _, rows, usable = objective.gradient(x[None])
        if not usable[0]:
            raise _NonFiniteValue
        return rows[0]

    def rms(x):
        return float(np.sqrt(np.mean(x * x)))

    def ascend(x0):
        x = x0 / rms(x0)
        ratio, lhs, rhs = value(x)
        if ratio is None:
            raise _NonFiniteValue
        trial_step = 0.5
        for _ in range(config.iterations):
            g = gradient(x)
            norm = float(np.linalg.norm(g))
            if norm == 0.0:
                break
            direction = g / norm
            t = trial_step
            accepted = None
            while t >= 1e-10:
                candidate = x + t * direction
                cand_ratio, cand_lhs, cand_rhs = value(candidate)
                if cand_ratio is not None and cand_ratio > ratio:
                    accepted = (candidate, cand_ratio, cand_lhs, cand_rhs)
                    break
                t *= 0.5
            if accepted is None:
                break
            candidate, cand_ratio, cand_lhs, cand_rhs = accepted
            improvement = (cand_ratio - ratio) / ratio
            x = candidate / rms(candidate)
            ratio, lhs, rhs = cand_ratio, cand_lhs, cand_rhs
            trial_step = min(2.0 * t, 1.0)
            if improvement < _ASCENT_TOL:
                break
        ratio, lhs, rhs = value(x)
        if ratio is None:
            raise _NonFiniteValue
        return x, ratio, lhs, rhs

    def draw_nondegenerate():
        for _ in range(1000):
            x = rng.standard_normal(objective.dimension)
            try:
                ratio, lhs, rhs = value(x)
            except _NonFiniteValue:
                continue
            if ratio is not None:
                return x, ratio, lhs, rhs
        raise SearchFailedError(
            f"could not draw a nondegenerate input for {config.functional!r} "
            f"with shape (n={config.n}, m={config.m})"
        )

    best = None
    for _ in range(config.probes):
        x, ratio, lhs, rhs = draw_nondegenerate()
        if best is None or ratio > best[0]:
            best = (ratio, x, lhs, rhs)
    discarded = 0
    for _ in range(config.restarts):
        x0, _, _, _ = draw_nondegenerate()
        try:
            x, ratio, lhs, rhs = ascend(x0)
        except _NonFiniteValue:
            discarded += 1
            continue
        if ratio > best[0]:
            best = (ratio, x, lhs, rhs)

    ratio, x, lhs, rhs = best
    witness = _freeze(x.reshape(objective.shape).tolist())
    return RatioCertificate(
        functional=config.functional,
        witness_kind=objective.kind,
        witness=witness,
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        config=config,
        discarded_restarts=discarded,
        digest=_certificate_digest(config.functional, objective.kind, witness, config),
    )
