"""The functional table and the random-restart ascent for extremal witnesses.

Each of the 11 two-sided functionals is defined once, by a raw builder
beside its library form, whose sides are the builder's values: the cube
functionals in `inequalities`, the martingale functionals in
`martingales`.  Its table entry adds the kind of witness it reads and the
exponents p it accepts (the range constants of `norms`, which the library
functions check too).  The search climbs the builder on batches; `sides`
gives the certified value on one raw witness array, validated once at the
boundary, for `eval` (through `functional_report`), `estimate`, `scan`
and certificate re-checks: the builder's values, or, for pisier, its
public lhs/rhs pair on a `HypercubeFunction` of the table, whose
`pisier_rhs` composes the public kernels of the builder's right side.
`verify`'s `batched-vs-single` check confirms that both agree bit for
bit.  The four martingale functionals read a view of increments: of a
function's dyadic martingale, or, for `eval`, of a `MartingaleSequence`.

The search maximizes log(lhs/rhs) by gradient ascent with a halving line
search.  It works on batches: the probes and restart points are drawn and
evaluated a batch of rows at a time, and the restarts climb in lockstep,
each row making the decisions it would make alone.  The line search
evaluates ladders of halvings, several trial steps per row in one batch;
each row takes the step that halving one trial at a time would take, in
the ladder that reaches it.  Values and gradients come from one
raw-array pass over the batch, which gives every row the bits it gets
alone.  Each gradient is adjoint: the functionals compose
self-adjoint linear maps on the cube (d_i, E_i, centring, Delta^-1, Rad,
martingale differences) with pointwise ell_q norms, L_p means and sign
averages or a maximum, so one backward pass costs about one evaluation,
where central differences cost 2 * dim of them.  At the kinks (q = 1,
q = inf, the umd maximum) it takes one subgradient.  The objective is
homogeneous of degree zero, so iterates are renormalized to unit scale
and any returned value is automatically a witnessed, re-checkable lower
bound: the certificate stores the witness and enough configuration to
reproduce both sides exactly, through `sides`, with the bits of the value
that the search maximized.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace
from operator import attrgetter

import numpy as np

from .hypercube import HypercubeFunction, _check_dimension, _clipped, _echo, _is_number
from .inequalities import (
    InequalityReport,
    _corollary2_build,
    _hn_remark_build,
    _json_fields,
    _k_convexity_build,
    _pisier_build,
    _rademacher_type_build,
    _stein_build,
    _theorem1_build,
    _vector_table,
    pisier_envelope,
    pisier_lhs,
    pisier_rhs,
)
from .martingales import (
    MartingaleSequence,
    _Increments,
    _martingale_type_build,
    _umd_build,
    _umd_minus_build,
    _umd_plus_build,
    make_dyadic_martingale,
)
from .norms import (
    DEFAULT_SAMPLES,
    DEGENERATE_EPS,
    DEVIATION_P,
    OPEN_P,
    TYPE_P,
    FunctionFamily,
    NormSpace,
    PRange,
    RademacherAveragePlan,
    _Side,
    _values,
)

__all__ = [
    "Functional",
    "WitnessKind",
    "functional_entry",
    "functional_report",
    "SearchConfig",
    "SearchObjective",
    "RatioCertificate",
    "CertificateMismatchError",
    "SearchFailedError",
    "FUNCTIONAL_NAMES",
    "maximize_ratio",
    "scan_dimension",
    "reevaluate_certificate",
    "load_certificate",
    "save_certificate",
]

_MIN_LINE_STEP = 1e-10
_ASCENT_TOL = 1e-9  # a restart stops once a step improves its ratio by less, relatively
# Certificate config keys at fixed values (an earlier ascent's central-difference
# step, and `_ASCENT_TOL`), written so that older certificates keep their digests.
_FIXED_CONFIG = {"step": 1e-5, "tol": _ASCENT_TOL}
_MAX_MISSES = 1000  # consecutive degenerate draws before a search gives up
# A batch holds at least one row and otherwise at most this many sign-pattern
# combination entries: rows times 2^min(n, 10) patterns times the witness
# size.  So no budget sizes an allocation, and the kernels' temporaries stay
# small enough for the cache; larger batches ran slower per row.
_BATCH_ENTRIES = 1 << 15
# The most entries a searched witness may hold: 2^n m for a function, n 2^n m
# for a family.  A scalar function at MAX_DIMENSION just fits.
_MAX_WITNESS_ENTRIES = 1 << 20


def _check_entries(size: int, what: str) -> None:
    """An input error unless `what`, which holds `size` entries, fits the witness bound."""
    if size > _MAX_WITNESS_ENTRIES:
        raise ValueError(f"{what} holds {size} entries; at most {_MAX_WITNESS_ENTRIES} are allowed")


def _check_table_budget(n: int, m: int, what: str) -> None:
    """An input error unless n is in [1, MAX_DIMENSION] and a (2^n, m) table
    fits `_check_entries`; `what` names the tables."""
    _check_dimension(n)
    _check_entries(m << n, f"a {what} table of 2^{n} x {m}")


class CertificateMismatchError(ValueError):
    """A stored certificate does not reproduce its own claims."""


class SearchFailedError(RuntimeError):
    """No nondegenerate starting point could be drawn."""


@dataclass(frozen=True)
class SearchConfig:
    """Shape, exponents and budgets for one extremal search: the search's
    only settings, whose defaults `cli` reads.  A field of the wrong type
    or range is a one-line error.  The ranges of m and q are `NormSpace`'s,
    and those of plan_mode, plan_samples and seed `RademacherAveragePlan`'s:
    both are built here.  p is checked against the range in the
    functional's table entry, here and only here; an unknown functional is
    an error when the search starts.  A certificate's digest
    covers its functional, witness kind and witness and this config, whose
    JSON adds `step` and `tol` at the fixed values of `_FIXED_CONFIG`; a
    re-check also requires the functional and the kind to be the config's.
    """

    functional: str
    n: int
    m: int
    p: float
    q: float
    restarts: int = 16
    iterations: int = 300
    probes: int = 2000
    seed: int = 0
    plan_mode: str = "auto"
    plan_samples: int = DEFAULT_SAMPLES

    def __post_init__(self) -> None:
        for name in ("n", "m", "restarts", "iterations", "probes", "seed", "plan_samples"):
            if not _is_number(value := getattr(self, name), int):
                raise TypeError(f"config {name} must be an integer, got {_echo(value)}")
        for name in ("p", "q"):
            if not _is_number(value := getattr(self, name)):
                raise TypeError(f"config {name} must be a real number, got {_echo(value)}")
        _check_dimension(self.n)
        self.space()  # m and q, by `NormSpace`
        self.plan()  # plan_mode, plan_samples and seed, by `RademacherAveragePlan`
        if self.restarts < 1 or self.iterations < 1 or self.probes < 1:
            raise ValueError("restarts, iterations and probes must all be >= 1")
        if entry := _FUNCTIONALS.get(self.functional):
            size = math.prod(entry.kind.shape(self.n, self.m))
            _check_entries(size, f"a {self.functional} witness at n={self.n}, m={self.m}")
            entry.p_range.check(self.p, self.functional)

    def space(self) -> NormSpace:
        return NormSpace(m=self.m, q=self.q)

    def plan(self) -> RademacherAveragePlan:
        return RademacherAveragePlan.for_mode(
            self.plan_mode, self.n, samples=self.plan_samples, seed=self.seed
        )

    def to_json_dict(self) -> dict:
        return {**_json_fields(self), **_FIXED_CONFIG}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SearchConfig":
        names = [f.name for f in fields(cls)]
        required = [f.name for f in fields(cls) if f.default is MISSING]
        _check_keys(data, "certificate config", required, allowed=names + list(_FIXED_CONFIG))
        data = dict(data)
        for key, fixed in _FIXED_CONFIG.items():
            if (value := data.pop(key, fixed)) != fixed:
                raise ValueError(f"certificate config {key} must be {fixed}, got {_echo(value)}")
        if data["q"] in ("inf", "Infinity"):
            data["q"] = math.inf
        if not _is_number(data["q"]):
            raise ValueError(
                f"certificate config q must be a number or 'inf', got {_echo(data['q'])}"
            )
        return cls(**data)


def _check_keys(data, what: str, required, allowed=None) -> None:
    """A one-line input error unless `data` is an object with every `required`
    key and, when `allowed` is given, no other key."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    for key in required:
        if key not in data:
            raise ValueError(f"{what} lacks the key {_echo(key)}")
    unknown = [key for key in data if allowed is not None and key not in allowed]
    if unknown:
        raise ValueError(f"{what} has the unknown key {_echo(unknown[0])}")


def _json_list(data, key: str) -> list:
    """The list under `key` of a parsed JSON object; anything else is an input error."""
    _check_keys(data, "input", [])
    if not isinstance(data.get(key), list):
        raise ValueError(f"input field {_echo(key)} must be a list")
    return data[key]


@contextmanager
def _reading(what: str):
    """Turn a missing or wrongly typed field nested in a JSON input into an input error."""
    try:
        yield
    except KeyError as err:
        raise ValueError(f"{what} input lacks the field {err}") from err
    except (TypeError, OverflowError) as err:
        raise ValueError(f"malformed {what} input: {err}") from err


@dataclass(frozen=True)
class WitnessKind:
    """What a functional reads: a function, a family, vectors or a martingale.

    `name` is the certificate's `witness_kind`, and `shape(n, m)` the shape
    of the raw array that the search climbs and `sides` reads.  `load`
    turns parsed JSON, an object with a list under `key`, into the
    validated witness that `eval` reads, through `read`; a malformed input
    is a one-line `ValueError`.  `dims` gives the witness's (n, m) and
    `raw` its array (or, for a martingale, its view of increments).
    """

    name: str
    shape: Callable[[int, int], tuple[int, ...]]
    key: str
    read: Callable[[dict], object]
    dims: Callable[[object], tuple[int, int]]
    raw: Callable[[object], object]

    def load(self, data):
        _json_list(data, self.key)
        with _reading(self.name):
            return self.read(data)


def _read_martingale(data: dict) -> MartingaleSequence:
    """A martingale file, or a plain function read as its dyadic martingale."""
    if "filtration" in data:
        return MartingaleSequence.from_json_dict(data)
    return make_dyadic_martingale(HypercubeFunction.from_json_dict(data))


def _cube_table(n: int, m: int) -> tuple[int, int]:
    return (1 << n, m)


_FUNCTION = WitnessKind(
    "function", _cube_table, "values", HypercubeFunction.from_json_dict,
    attrgetter("n", "m"), attrgetter("values"),
)
_FAMILY = WitnessKind(
    "family", lambda n, m: (n, 1 << n, m), "functions", FunctionFamily.from_json_dict,
    attrgetter("n", "m"), FunctionFamily.stacked,
)
_VECTORS = WitnessKind(
    "vectors", lambda n, m: (n, m), "vectors", lambda data: _vector_table(data["vectors"]),
    np.shape, lambda v: v,
)
# The martingale functionals search over functions, read as their dyadic
# martingales, so their certificates name the witness kind "function".
_MARTINGALE = WitnessKind(
    "function", _cube_table, "values", _read_martingale,
    lambda M: (M.steps, M.m), _Increments.of,
)


@dataclass(frozen=True)
class Functional:
    """One two-sided functional, defined once for every command.

    `build(x, n, p, space, plan) -> (lhs, rhs)` is its definition: both
    sides as `_Side`s on raw witness arrays x with leading batch axes, a
    value per row and its gradient with respect to x when asked.  The
    search climbs it on (B, *shape) batches.  `sides(x, n, p, space, plan)
    -> (lhs, rhs)` is the certified value, for `eval`, certificates and
    re-checks, on one validated raw witness x (or view of increments): the
    builder's values, or, when `pair` is set, that pair's values.  Only
    pisier sets it, to `pisier_lhs`/`pisier_rhs` on a `HypercubeFunction`
    of x (its builder's left side, and its right side's public kernels):
    the benchmark's traced run counts pisier's certified evaluations
    through them, as
    `benchmarks/tests/test_benchmark.py::test_patching_reaches_every_import_site_and_is_undone`
    requires.  With `exact_signs` the sign averages enumerate every sign
    vector, whatever plan is asked for.
    """

    kind: WitnessKind
    p_range: PRange
    build: Callable
    pair: Callable | None = None
    exact_signs: bool = False

    def plan(self, plan: RademacherAveragePlan) -> RademacherAveragePlan:
        """The plan `sides` runs with when `plan` is asked for."""
        return replace(plan, mode="exact") if self.exact_signs else plan

    def sides(self, x, n: int, p: float, space: NormSpace, plan) -> tuple[float, float]:
        if self.pair is not None:
            return self.pair(x, n, p, space, plan)
        return _values(self.build(x, n, p, space, plan))


def _pisier_sides(table, n, p, space, plan):
    f = HypercubeFunction.from_values(table)
    return pisier_lhs(f, p, space), pisier_rhs(f, p, space, plan)


_FUNCTIONALS = {
    "pisier": Functional(_FUNCTION, DEVIATION_P, _pisier_build, _pisier_sides),
    "theorem1": Functional(_FAMILY, OPEN_P, _theorem1_build),
    "corollary2": Functional(_FAMILY, OPEN_P, _corollary2_build),
    "stein": Functional(_FAMILY, OPEN_P, _stein_build),
    "hn-remark": Functional(_FAMILY, OPEN_P, _hn_remark_build),
    "k-convexity": Functional(_FUNCTION, OPEN_P, _k_convexity_build),
    "rademacher-type": Functional(_VECTORS, TYPE_P, _rademacher_type_build, exact_signs=True),
    "umd": Functional(_MARTINGALE, OPEN_P, _umd_build),
    "umd-plus": Functional(_MARTINGALE, OPEN_P, _umd_plus_build),
    "umd-minus": Functional(_MARTINGALE, OPEN_P, _umd_minus_build),
    "martingale-type": Functional(_MARTINGALE, TYPE_P, _martingale_type_build),
}

FUNCTIONAL_NAMES = tuple(sorted(_FUNCTIONALS))


def _entry(name: str) -> Functional:
    """The table entry of functional `name`; an unknown name is an input error."""
    entry = _FUNCTIONALS.get(name)
    if entry is None:
        raise ValueError(f"unknown functional {_echo(name)}; choose one of {FUNCTIONAL_NAMES}")
    return entry


def functional_entry(name: str, p: float) -> Functional:
    """The table entry of functional `name`, once p is checked against its range."""
    entry = _entry(name)
    entry.p_range.check(p, name)
    return entry


def functional_report(
    name: str, witness, p: float, space: NormSpace, plan: RademacherAveragePlan
) -> InequalityReport:
    """Both sides of functional `name` at `witness`, with the plan they ran with.

    A side or ratio that overflows to inf or NaN is an input error, never a report.
    """
    entry = functional_entry(name, p)
    plan = entry.plan(plan)
    n, m = entry.kind.dims(witness)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs, rhs = entry.sides(entry.kind.raw(witness), n, p, space, plan)
    report = InequalityReport.build(name, lhs, rhs, n, m, float(p), space.q, plan)
    if not all(math.isfinite(value) for value in (lhs, rhs, report.ratio or 0.0)):
        raise ValueError(
            f"{name} is not finite at this input (lhs {lhs}, rhs {rhs}, ratio {report.ratio})"
        )
    return report


@dataclass(frozen=True)
class RatioCertificate:
    """A reproducible extremal witness: inputs, both sides, and their ratio."""

    functional: str
    witness_kind: str
    witness: tuple
    lhs: float
    rhs: float
    ratio: float
    config: SearchConfig
    discarded_restarts: int
    digest: str

    def to_json_dict(self) -> dict:
        return {**_json_fields(self), "config": self.config.to_json_dict()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "RatioCertificate":
        _check_keys(data, "certificate", [f.name for f in fields(cls)])
        for keys, what, fits in (
            (("functional", "witness_kind", "digest"), "a string", lambda v: isinstance(v, str)),
            (("lhs", "rhs", "ratio"), "a number", _is_number),
            (("discarded_restarts",), "an integer >= 0", lambda v: _is_number(v, int) and v >= 0),
        ):
            for key in keys:
                if not fits(data[key]):
                    raise ValueError(f"certificate {key} must be {what}, got {_echo(data[key])}")
        try:  # numpy refuses ragged, non-numeric and over-64-deep lists before `_freeze` recurses
            np.asarray(data["witness"], dtype=np.float64)
        except (TypeError, ValueError) as err:
            raise ValueError(f"certificate witness is not a numeric array: {_clipped(err)}") from err
        with _reading("certificate"):
            return cls(
                functional=data["functional"],
                witness_kind=data["witness_kind"],
                witness=_freeze(data["witness"]),
                lhs=float(data["lhs"]),
                rhs=float(data["rhs"]),
                ratio=float(data["ratio"]),
                config=SearchConfig.from_json_dict(data["config"]),
                discarded_restarts=data["discarded_restarts"],
                digest=data["digest"],
            )

    def witness_array(self) -> np.ndarray:
        return np.asarray(self.witness, dtype=np.float64)


def _freeze(nested):
    if isinstance(nested, (list, tuple)):
        return tuple(_freeze(item) for item in nested)
    return nested


def _certificate_digest(functional: str, witness_kind: str, witness, config: SearchConfig) -> str:
    payload = json.dumps(
        {
            "functional": functional,
            "witness_kind": witness_kind,
            "witness": witness,  # tuples dump as the arrays they were read from
            "config": config.to_json_dict(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class SearchObjective:
    """The ratio of one table functional at a fixed config, on flat vectors.

    `sides` evaluates one flat witness through the functional's `sides`, on
    its raw array, for certificates.  Calling the objective and `gradient`
    evaluate a (B, dim) batch of flat vectors on raw arrays, through the
    functional's builder; they flag degenerate and non-finite rows one by
    one.  `batch_rows` is the most rows the search puts in one batch: by
    default as many as `_BATCH_ENTRIES` allows, and at least one.
    """

    def __init__(self, config: SearchConfig, batch_rows: int | None = None) -> None:
        self.entry = _entry(config.functional)  # the config has checked p against its range
        self.kind = self.entry.kind.name
        self.shape = self.entry.kind.shape(config.n, config.m)
        self.dimension = math.prod(self.shape)
        if batch_rows is None:
            batch_rows = max(1, _BATCH_ENTRIES // (self.dimension << min(config.n, 10)))
        self.batch_rows = batch_rows
        self.config = config
        self.space = config.space()
        self.plan = self.entry.plan(config.plan())

    def sides(self, flat: np.ndarray) -> tuple[float, float]:
        """(lhs, rhs) at the witness whose raw array is `flat`."""
        config = self.config
        return self.entry.sides(flat.reshape(self.shape), config.n, config.p, self.space, self.plan)

    def raw_sides(self, batch: np.ndarray) -> tuple[_Side, _Side]:
        """(lhs, rhs) of a (B, dim) batch on raw arrays: values per row, and
        (B, *shape) gradients when asked."""
        x = batch.reshape((-1,) + self.shape)
        return self.entry.build(x, self.config.n, self.config.p, self.space, self.plan)

    def __call__(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(ratio, finite) per row of a (B, dim) batch, without gradients.

        `finite` is False where lhs or rhs is not finite; `ratio` is lhs/rhs,
        and nan where the row is not finite or rhs is degenerate.
        """
        return _ratios(*(side.value for side in self.raw_sides(batch)))

    def gradient(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ratio, gradient, usable) per row of a (B, dim) batch.

        `ratio` is as the call gives it, from the same pass; `gradient` holds
        the gradients of log(lhs/rhs) as (B, dim) rows, and `usable` says
        where one holds: the ratio is positive and the gradient finite.
        """
        lhs, rhs = self.raw_sides(batch)
        dlhs, drhs = lhs.gradient(), rhs.gradient()
        lhs, rhs = lhs.value, rhs.value
        column = (-1,) + (1,) * len(self.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            gradient = dlhs / lhs.reshape(column) - drhs / rhs.reshape(column)
        gradient = gradient.reshape(len(batch), -1)
        usable = (lhs > 0.0) & (rhs > 0.0) & np.isfinite(gradient).all(axis=1)
        return _ratios(lhs, rhs)[0], gradient, usable


def _ratios(lhs: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lhs/rhs per row (nan where a side is not finite or rhs is degenerate), and finiteness."""
    finite = np.isfinite(lhs) & np.isfinite(rhs)
    ratio = np.full(len(lhs), np.nan)
    np.divide(lhs, rhs, out=ratio, where=finite & (rhs >= DEGENERATE_EPS))
    return ratio, finite


def _rms(x: np.ndarray) -> np.ndarray:
    """The root-mean-square scale of each row, as a column: `np.mean`'s sum
    and division, with its bits, without its per-call overhead."""
    return np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1])


def _ascend(objective: SearchObjective, starts: np.ndarray, config: SearchConfig):
    """Gradient ascent on log(ratio) with a backtracking halving line search,
    run in lockstep from every row of `starts`.

    Each row keeps its own state (point, ratio, trial step) and makes the
    decisions it would make alone; a round evaluates only the rows still
    climbing, one gradient batch and then the line search's ladders.  A
    ladder is one value batch of rows x rungs: the next d halvings t, t/2,
    ..., t/2^(d-1) of every row still searching, where d starts at 2 and
    doubles each time, capped by `batch_rows` over the rows and by the rungs
    that every row has at or above `_MIN_LINE_STEP`.  A row is settled in
    the ladder that holds its first non-finite rung (the row is discarded)
    or better rung (the step is accepted): the step a search halving one
    trial at a time stops at, with the same bits.  A row whose ladder
    reaches the floor stops climbing.  Iterates are renormalized to unit
    root-mean-square scale (the ratio is scale invariant), so the steps are
    relative in every coordinate.  Returns the final points and their
    ratios, nan for a row discarded on a degenerate or non-finite value or
    gradient.
    """
    x = starts / _rms(starts)
    ratio, _ = objective(x)
    kept = ~np.isnan(ratio)
    climbing = kept.copy()
    step = np.full(len(x), 0.5)  # each row's next trial step
    for _ in range(config.iterations):
        rows = np.flatnonzero(climbing)
        if rows.size == 0:
            break
        _, gradient, usable = objective.gradient(x[rows])
        kept[rows[~usable]] = False
        norm = np.sqrt(np.vecdot(gradient, gradient))
        moving = usable & (norm > 0.0)
        climbing[rows] = False  # until the row accepts a step that improves it enough
        live, direction = rows[moving], gradient[moving] / norm[moving, None]
        depth = 2
        while live.size:
            depth = min(depth, max(1, objective.batch_rows // live.size))
            # Exact halvings t * 2^-j: each rung is the step that many halvings reach.
            steps = np.ldexp(step[live, None], -np.arange(depth))
            steps = steps[:, (steps >= _MIN_LINE_STEP).all(axis=0)]
            trial = x[live, None] + steps[..., None] * direction[:, None]
            value, finite = objective(trial.reshape(-1, x.shape[1]))
            value, finite = value.reshape(steps.shape), finite.reshape(steps.shape)
            stops = ~finite | (value > ratio[live, None])
            hit, rung = stops.any(axis=1), np.argmax(stops, axis=1)  # each row's first stop
            accepts = hit & finite[np.arange(live.size), rung]
            kept[live] = accepts | ~hit  # a first stop that is non-finite discards the row
            at, rung = np.flatnonzero(accepts), rung[accepts]
            won, point, better = live[at], trial[at, rung], value[at, rung]
            climbing[won] = (better - ratio[won]) / ratio[won] >= _ASCENT_TOL
            x[won], ratio[won] = point / _rms(point), better
            step[won] = np.minimum(2.0 * steps[at, rung], 1.0)
            # The other rows go on from their next halving while it is above the floor.
            after = np.ldexp(steps[:, -1], -1)
            going = ~hit & (after >= _MIN_LINE_STEP)
            live, direction = live[going], direction[going]
            step[live] = after[going]
            depth *= 2
    # Evaluate again at the stored (renormalized) points.
    rows = np.flatnonzero(kept)
    ratio[:] = np.nan
    if rows.size:
        ratio[rows] = objective(x[rows])[0]
    return x, ratio


def _nondegenerate_draws(objective: SearchObjective, rng, count: int):
    """Yield the first `count` nondegenerate standard normal draws with their ratios.

    Rows are drawn a batch at a time but never more than are still needed,
    so the stream of draws is that of one draw per row.  A run of 1000
    degenerate or non-finite draws raises `SearchFailedError`.
    """
    misses = 0
    while count > 0:
        batch = rng.standard_normal((min(count, objective.batch_rows), objective.dimension))
        ratios, _ = objective(batch)
        for x, ratio in zip(batch, ratios):
            if math.isnan(ratio):
                misses += 1
                if misses == _MAX_MISSES:
                    config = objective.config
                    raise SearchFailedError(
                        f"could not draw a nondegenerate input for {_echo(config.functional)} "
                        f"with shape (n={config.n}, m={config.m})"
                    )
                continue
            misses = 0
            count -= 1
            yield x, ratio


def maximize_ratio(config: SearchConfig) -> RatioCertificate:
    """Run probes plus restarts and certify the best witnessed ratio.

    Probes and restart points are drawn and evaluated in batches; the
    restarts climb in lockstep, in groups of at most one batch.  The
    returned ratio is at least the best pure-probe ratio of the run; ties
    between candidates resolve to the earliest one, so identical
    configurations yield byte-identical certificates.  Candidates are
    compared on raw-array values; lhs, rhs and ratio of the certificate
    come from `sides` at the stored witness, with the same bits.
    """
    return _certify(SearchObjective(config))


def _certify(objective: SearchObjective) -> RatioCertificate:
    """`maximize_ratio` on `objective`, in batches of at most its `batch_rows`."""
    config = objective.config
    kind = objective.kind
    rng = np.random.default_rng(config.seed)
    draws = _nondegenerate_draws(objective, rng, config.probes + config.restarts)

    best_ratio, best_x = -math.inf, None  # the first strictly better candidate wins
    for x, ratio in itertools.islice(draws, config.probes):
        if ratio > best_ratio:
            best_ratio, best_x = ratio, x

    discarded = 0
    while starts := [x for x, _ in itertools.islice(draws, objective.batch_rows)]:
        finals, ratios = _ascend(objective, np.array(starts), config)
        for x, ratio in zip(finals, ratios):
            if math.isnan(ratio):
                discarded += 1
            elif ratio > best_ratio:
                best_ratio, best_x = ratio, x

    lhs, rhs = objective.sides(best_x)
    witness = _freeze(best_x.reshape(objective.shape).tolist())
    digest = _certificate_digest(config.functional, kind, witness, config)
    return RatioCertificate(
        functional=config.functional,
        witness_kind=kind,
        witness=witness,
        lhs=lhs,
        rhs=rhs,
        ratio=lhs / rhs,
        config=config,
        discarded_restarts=discarded,
        digest=digest,
    )


def reevaluate_certificate(cert: RatioCertificate) -> InequalityReport:
    """Recompute both sides from the stored witness; any drift is an error."""
    expected = _certificate_digest(cert.functional, cert.witness_kind, cert.witness, cert.config)
    if expected != cert.digest:
        raise CertificateMismatchError("certificate digest does not match its payload")
    config = cert.config
    if cert.functional != config.functional:
        raise CertificateMismatchError(
            f"functional {_echo(cert.functional)} is not the config's {_echo(config.functional)}"
        )
    objective = SearchObjective(config)
    if objective.kind != cert.witness_kind:
        raise CertificateMismatchError(
            f"witness kind {_echo(cert.witness_kind)} does not fit functional"
            f" {_echo(config.functional)}"
        )
    witness = cert.witness_array()
    if witness.shape != objective.shape:
        raise CertificateMismatchError(
            f"witness of shape {witness.shape} where {config.functional} reads {objective.shape}"
        )
    if not np.isfinite(witness).all():
        raise ValueError("certificate witness contains non-finite entries")
    lhs, rhs = objective.sides(witness.reshape(-1))
    # Written so that a NaN anywhere fails: every comparison with NaN is False.
    scale = max(abs(cert.lhs), abs(cert.rhs), 1e-30)
    if not (abs(lhs - cert.lhs) <= 1e-9 * scale and abs(rhs - cert.rhs) <= 1e-9 * scale):
        raise CertificateMismatchError(
            f"stored values (lhs={cert.lhs}, rhs={cert.rhs}) do not reproduce "
            f"(lhs={lhs}, rhs={rhs})"
        )
    ratio = lhs / rhs if rhs >= DEGENERATE_EPS else math.nan
    if not (abs(cert.ratio - ratio) <= 1e-9 * abs(ratio)):
        raise CertificateMismatchError(f"stored ratio {cert.ratio} is not lhs/rhs = {ratio}")
    return InequalityReport.build(
        cert.functional,
        lhs,
        rhs,
        config.n,
        config.m,
        config.p,
        config.q,
        objective.plan,
    )


def scan_dimension(
    config: SearchConfig,
    n_values,
    m_for_n=None,
    csv_path: str | None = None,
) -> list[RatioCertificate]:
    """One certificate per dimension, with the explicit 2 e log n envelope column.

    `m_for_n` optionally maps n to a target dimension (e.g. ``lambda n: 2**n``
    for max-norm targets that grow with the cube).
    """
    m_of = (lambda n: config.m) if m_for_n is None else m_for_n
    # Every shape is checked before the first search runs.
    configs = [replace(config, n=int(n), m=int(m_of(n))) for n in n_values]
    certificates = [maximize_ratio(shaped) for shaped in configs]
    if csv_path is not None:
        with open(csv_path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["n", "ratio", "envelope_2e_log_n"])
            for cert in certificates:
                writer.writerow([cert.config.n, cert.ratio, pisier_envelope(cert.config.n)])
    return certificates


def save_certificate(cert: RatioCertificate, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(cert.to_json())


def load_certificate(path: str) -> RatioCertificate:
    with open(path, "r", encoding="utf-8") as handle:
        return RatioCertificate.from_json_dict(json.load(handle))
