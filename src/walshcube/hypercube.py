"""Vector-valued functions on the discrete hypercube and their Walsh spectra.

The hypercube C_n = {-1,+1}^n is enumerated by point indices k in [0, 2^n).
The fixed bit convention, shared by every module and file format:

* coordinate i (1-based) lives in bit (i-1) of the index, bit 0 being the
  least significant bit;
* coordinate value eps_i = +1 when bit (i-1) of k is 0, and -1 when it is 1;
* a subset A of {1, ..., n} is encoded as the bitmask with bit (i-1) set
  exactly when i is in A.

Under this convention the Walsh character is w_A(eps) = prod_{i in A} eps_i
= (-1)^popcount(A & k), flipping coordinate i is XOR with 1 << (i-1), and
the fast transform is the radix-2 butterfly, run in Pease's constant-geometry
order (see `_fwht`).  It is cache-blocked in two phases: the low index bits
within blocks of rows that fit in cache, then the high bits within column
panels.  Both phases still run the stages on bits 0, 1, ..., n-1 in that
order, each adding and subtracting the same two operands in the same order,
so the output has the bits of the plain in-place butterfly.

Forward coefficients carry the averaging factor: fhat(A) is the mean of
f(eps) * w_A(eps) over the cube, so fhat(empty set) is the mean of f.  The
inverse direction carries no factor.

Public constructors copy their table; the transforms and operators hand the
arrays they compute to `_own`, which checks them and sets them read-only.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, fields
from operator import index

import numpy as np

MAX_DIMENSION = 20

__all__ = [
    "MAX_DIMENSION",
    "HypercubeFunction",
    "WalshSpectrum",
    "SignAssignment",
    "walsh_forward",
    "walsh_inverse",
    "walsh_forward_naive",
    "walsh_inverse_naive",
    "evaluate_walsh_character",
    "character_matrix",
    "sign_vector",
    "sign_matrix",
    "subset_sizes",
]


# A refusal shows an input value through `_echo`: its repr, cut to about 60
# characters, so a malformed field cannot fill the error line.
_ECHO = reprlib.Repr()
_ECHO.maxstring = _ECHO.maxother = 60
_echo = _ECHO.repr


def _clipped(err: Exception) -> str:
    """The text of `err` cut to about 60 characters, as `_echo` cuts a value."""
    text = str(err)
    return text if len(text) <= 60 else f"{text[:57]}..."


def _check_dimension(n: int) -> None:
    """An input error unless n is an integer (not a bool) in [1, MAX_DIMENSION]."""
    if not _is_number(n, int):
        raise ValueError(f"dimension n must be an integer, got {_echo(n)}")
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension n must be in [1, {MAX_DIMENSION}], got {n}")


def _check_index(value: int, low: int, high: int, what: str) -> None:
    """An input error unless `value`, a `what`, lies in low..high (both included)."""
    if not low <= value <= high:
        raise ValueError(f"{what} {value} out of range {low}..{high}")


def _is_number(value, types=(int, float)) -> bool:
    """Whether `value` is one of `types` and not a bool, which is an int too."""
    return isinstance(value, types) and not isinstance(value, bool)


def _integer(value, what: str) -> int:
    """`value` as an int when it is an integer (numpy's too, a bool not);
    anything else is a one-line input error naming `what`, never truncated."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {_echo(value)}")


def _json_int(data: dict, key: str, what: str) -> int:
    """The integer `data[key]`; anything else is an input error naming the `what` field."""
    if not _is_number(value := data[key], int):
        raise ValueError(f"{what} {key} must be an integer, got {_echo(value)}")
    return value


def _check_table(table: np.ndarray, what: str) -> tuple[int, int, np.ndarray]:
    """Validate a float64 table and return (n, m, the table set read-only)."""
    if table.ndim == 1:
        table = table[:, None]
    if table.ndim != 2:
        raise ValueError(f"{what} table must be 2-dimensional, got shape {table.shape}")
    rows, m = table.shape
    n = rows.bit_length() - 1
    if rows != 1 << n or rows < 2:
        raise ValueError(f"{what} table must have 2^n rows with n >= 1, got {rows}")
    _check_dimension(n)
    if m < 1:
        raise ValueError("target dimension m must be >= 1")
    if not np.isfinite(table).all():
        raise ValueError(f"{what} table contains non-finite entries")
    table.setflags(write=False)
    return n, m, table


def _table_dims(values) -> tuple[np.ndarray, int, int]:
    """`values` as a float64 array (no copy when it is one), with the (n, m)
    its shape declares; `_check_table` rejects any shape that is not
    (2^n, m) or (2^n,)."""
    try:
        values = np.asarray(values, dtype=np.float64)
    except ValueError as err:  # numpy's text quotes the entry whole
        raise ValueError(_clipped(err)) from err
    rows, m = (values.shape + (1, 1))[:2]
    return values, rows.bit_length() - 1, m


def _check_declared(data: dict, table):
    """`table`, read from `data`, once the optional "n" and "m" of `data` are its own."""
    n, m = table.n, table.m
    for key, size, of in (("n", n, f"table with 2^{n} rows"), ("m", m, f"row length {m}")):
        if key in data and _json_int(data, key, "declared") != size:
            raise ValueError(f"declared {key}={data[key]} does not match {of}")
    return table


def _post_init_table(self) -> None:
    """`__post_init__` of both table classes: copy the table (the third
    field), check it, and check it against the declared (n, m)."""
    name = fields(self)[2].name
    table = np.array(getattr(self, name), dtype=np.float64, order="C")
    n, m, table = _check_table(table, self._what)
    if n != self.n or m != self.m:
        raise ValueError(
            f"declared shape (n={self.n}, m={self.m}) does not match "
            f"{self._what} table of {table.shape[0]} rows x {table.shape[1]} columns"
        )
    object.__setattr__(self, name, table)


def _own(cls, table: np.ndarray):
    """`cls(n, m, table)` for a float64 table the caller has just computed: same checks, no copy."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip((field.name for field in fields(cls)), _check_table(table, cls._what)))
    return obj


@dataclass(frozen=True, eq=False)
class HypercubeFunction:
    """A function f : C_n -> R^m stored as a dense table of 2^n rows.

    Row k holds f at the point with index k under the module's bit
    convention.  The table is read-only after construction; operators
    return new instances.
    """

    n: int
    m: int
    values: np.ndarray
    _what = "function"
    __post_init__ = _post_init_table

    @classmethod
    def from_values(cls, values: np.ndarray) -> "HypercubeFunction":
        values, n, m = _table_dims(values)
        return cls(n, m, values)

    @classmethod
    def constant(cls, n: int, vector: np.ndarray) -> "HypercubeFunction":
        vec = np.atleast_1d(np.asarray(vector, dtype=np.float64))
        return cls.from_values(np.tile(vec, (1 << n, 1)))

    @classmethod
    def character(cls, n: int, subset: int, vector: np.ndarray) -> "HypercubeFunction":
        """The rank-one function w_A(eps) * v for A given as a bitmask."""
        _check_dimension(n)
        _check_index(subset, 0, (1 << n) - 1, "subset bitmask")
        vec = np.atleast_1d(np.asarray(vector, dtype=np.float64))
        signs = _character_column(subset, n)
        return cls.from_values(signs[:, None] * vec[None, :])

    def mean(self) -> np.ndarray:
        """The average of f over the cube, a vector in R^m."""
        return self.values.mean(axis=0)

    def __add__(self, other: "HypercubeFunction") -> "HypercubeFunction":
        self._check_same_shape(other)
        return _own(HypercubeFunction, self.values + other.values)

    def __sub__(self, other: "HypercubeFunction") -> "HypercubeFunction":
        self._check_same_shape(other)
        return _own(HypercubeFunction, self.values - other.values)

    def __mul__(self, scalar: float) -> "HypercubeFunction":
        return _own(HypercubeFunction, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "HypercubeFunction":
        return _own(HypercubeFunction, -self.values)

    def _check_same_shape(self, other: "HypercubeFunction") -> None:
        if (self.n, self.m) != (other.n, other.m):
            raise ValueError(
                f"shape mismatch: (n={self.n}, m={self.m}) vs (n={other.n}, m={other.m})"
            )

    def to_json_dict(self) -> dict:
        return {"n": self.n, "m": self.m, "values": self.values.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "HypercubeFunction":
        return _check_declared(data, cls.from_values(data["values"]))


@dataclass(frozen=True, eq=False)
class WalshSpectrum:
    """Walsh coefficients fhat(A) indexed by the subset bitmask A."""

    n: int
    m: int
    coefficients: np.ndarray
    _what = "spectrum"
    __post_init__ = _post_init_table

    @classmethod
    def from_coefficients(cls, coefficients: np.ndarray) -> "WalshSpectrum":
        coefficients, n, m = _table_dims(coefficients)
        return cls(n, m, coefficients)

    def coefficient(self, subset: int) -> np.ndarray:
        _check_index(subset, 0, (1 << self.n) - 1, "subset bitmask")
        return self.coefficients[subset]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "m": self.m, "coefficients": self.coefficients.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "WalshSpectrum":
        return _check_declared(data, cls.from_coefficients(data["coefficients"]))


@dataclass(frozen=True)
class SignAssignment:
    """A sign vector delta in {-1,+1}^n encoded with the point-bit convention."""

    n: int
    bitmask: int

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        _check_index(self.bitmask, 0, (1 << self.n) - 1, "bitmask")

    def signs(self) -> np.ndarray:
        """The vector (delta_1, ..., delta_n) as floats."""
        return sign_vector(self.n, self.bitmask)


def sign_vector(n: int, mask: int) -> np.ndarray:
    """Decode a bitmask into the sign vector (+1 for a clear bit, -1 for a set bit)."""
    return sign_matrix(n, np.array([mask]))[0]


def sign_matrix(n: int, masks: np.ndarray) -> np.ndarray:
    """Rows of sign vectors for an array of bitmasks, shape (len(masks), n)."""
    masks = np.asarray(masks, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(n)[None, :]) & 1
    return 1.0 - 2.0 * bits.astype(np.float64)


def subset_sizes(n: int) -> np.ndarray:
    """|A| for every bitmask A in [0, 2^n), i.e. the popcount table."""
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)


def evaluate_walsh_character(subset: int, point: int, n: int | None = None) -> int:
    """w_A(eps) = (-1)^popcount(A & k) for subset mask A and point index k."""
    if n is not None:
        _check_index(subset, 0, (1 << n) - 1, "subset bitmask")
        _check_index(point, 0, (1 << n) - 1, "point index")
    return -1 if int(subset & point).bit_count() & 1 else 1


def _character_column(subset: int, n: int) -> np.ndarray:
    """w_A evaluated at every point index, as a float vector of +-1."""
    overlap = np.bitwise_count(np.bitwise_and(np.arange(1 << n, dtype=np.uint64), np.uint64(subset)))
    return 1.0 - 2.0 * (overlap & np.uint64(1)).astype(np.float64)


def character_matrix(n: int) -> np.ndarray:
    """The full 2^n x 2^n matrix W[a, k] = w_A(eps_k).  O(4^n) memory; n <= 10.

    Sylvester doubling: the matrix on 2^(b+1) indices is the one on 2^b copied
    right and down and negated bottom right, so its entries are exactly +-1.
    """
    if n > 10:
        raise ValueError("dense character matrix is limited to n <= 10")
    w = np.empty((1 << n, 1 << n))
    w[0, 0] = 1.0
    for h in (1 << b for b in range(n)):
        w[:h, h : 2 * h] = w[h : 2 * h, :h] = w[:h, :h]
        np.negative(w[:h, :h], out=w[h : 2 * h, h : 2 * h])
    return w


_BLOCK = 1 << 16  # float64 entries per scratch buffer of `_fwht`: 512 KiB, two fit in L2


def _stages(source: np.ndarray, target: np.ndarray, axis: int) -> np.ndarray:
    """The full constant-geometry butterfly along `axis` (-1 or -2) of
    `source`, ping-ponging with `target`; returns the buffer holding the result.

    Each stage is y[j] = x[2j] + x[2j+1], y[j + L/2] = x[2j] - x[2j+1] for an
    axis of length L = 2^s.  A stage rotates the position bits right by one,
    so stage t pairs bit t - 1 of the natural index with the operands and
    order of the in-place stage h = 2^(t-1), and s stages restore natural order.
    """
    rest = (slice(None),) * (-1 - axis)
    length = source.shape[axis]
    even, odd = (..., slice(0, None, 2), *rest), (..., slice(1, None, 2), *rest)
    low, high = (..., slice(None, length // 2), *rest), (..., slice(length // 2, None), *rest)
    for _ in range(length.bit_length() - 1):
        np.add(source[even], source[odd], out=target[low])
        np.subtract(source[even], source[odd], out=target[high])
        source, target = target, source
    return source


def _fwht(table: np.ndarray, *, block: int = _BLOCK) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard butterfly along axis -2.

    Computes out[s] = sum_k table[k] * (-1)^popcount(k & s) in O(n 2^n)
    per column, for a (2^n, m) table or a (..., 2^n, m) stack of them, with
    the bits of the in-place stage order (the oracle in `tests/_naive.py`).

    An input of at most `block` entries, stack included, goes through all n
    stages in one transposed copy.  A larger one is cache-blocked in two
    phases, so memory is streamed twice instead of n times.  Write the row
    index k = a B + j, with B = 2^b the largest power of two for which
    B m <= `block` (at most 2^n) and A = 2^n / B.
    Phase 1 takes the low bits 0 .. b-1: every stack table splits into A
    contiguous rows of B x m entries, and a block of such rows at a time is
    transposed into scratch, run through the b stages of `_stages` along its
    last axis, and transposed back into the output.  Phase 2, needed only
    when a table exceeds a block, takes the high bits b .. n-1: each table,
    seen as an (A, B m) array, is copied one panel of `block // A` columns at
    a time into scratch and run through the n - b stages along axis -2.
    Every entry still meets stages 0 .. n-1 in that order, each adding and
    subtracting the same two operands in the same order as the in-place
    stage, so the output is the same bit for bit whatever the split, and
    every table of a stack gets the bits it gets alone.  Besides the output
    it allocates two scratch buffers of about `block` entries each.
    """
    rows, columns = table.shape[-2:]
    if table.size <= block:
        source = np.empty(table.shape[:-2] + (columns, rows))
        np.copyto(source, np.swapaxes(table, -1, -2))
        return np.ascontiguousarray(np.swapaxes(_stages(source, np.empty_like(source), -1), -1, -2))
    out = np.empty(table.shape)
    n = rows.bit_length() - 1
    low = min(n, max(block // columns, 1).bit_length() - 1)
    points, panel_rows = 1 << low, rows >> low  # B and A
    pieces = table.reshape(-1, points, columns)  # a view unless the strides forbid one
    chunk = max(min(block // (points * columns), len(pieces)), 1)  # rows of B points per block
    width = min(max(block // panel_rows, 1), points * columns)  # columns per panel
    size = max(chunk * points * columns if low else 0, panel_rows * width)
    first, second = np.empty(size), np.empty(size)  # the scratch pair of both phases
    if low == 0:
        np.copyto(out, table)
    else:
        written = out.reshape(pieces.shape)
        for start in range(0, len(pieces), chunk):
            part = pieces[start : start + chunk]
            shape = (len(part), columns, points)
            source, target = first[: part.size].reshape(shape), second[: part.size].reshape(shape)
            np.copyto(source, np.swapaxes(part, -1, -2))
            np.copyto(written[start : start + chunk], np.swapaxes(_stages(source, target, -1), -1, -2))
    if panel_rows > 1:
        for single in out.reshape(-1, panel_rows, points * columns):
            for start in range(0, points * columns, width):
                panel = single[:, start : start + width]
                shape = panel.shape
                source, target = first[: panel.size].reshape(shape), second[: panel.size].reshape(shape)
                np.copyto(source, panel)
                np.copyto(panel, _stages(source, target, -2))
    return out


def walsh_forward(f: HypercubeFunction) -> WalshSpectrum:
    """Walsh coefficients fhat(A) = 2^-n sum_eps f(eps) w_A(eps) (fast butterfly)."""
    coeffs = _fwht(f.values)
    coeffs /= 1 << f.n
    return _own(WalshSpectrum, coeffs)


def walsh_inverse(s: WalshSpectrum) -> HypercubeFunction:
    """Evaluate f(eps) = sum_A fhat(A) w_A(eps) (fast butterfly, no factor)."""
    return _own(HypercubeFunction, _fwht(s.coefficients))


def walsh_forward_naive(f: HypercubeFunction) -> WalshSpectrum:
    """Reference O(4^n) transform through the dense character matrix.

    Kept alongside the fast path on purpose: golden data and benchmark
    agreement checks always go through this route, never the butterfly.
    """
    w = character_matrix(f.n)
    coeffs = (w @ f.values) / (1 << f.n)
    return WalshSpectrum(n=f.n, m=f.m, coefficients=coeffs)


def walsh_inverse_naive(s: WalshSpectrum) -> HypercubeFunction:
    """Reference O(4^n) evaluation of a Walsh series."""
    w = character_matrix(s.n)
    return HypercubeFunction(n=s.n, m=s.m, values=w @ s.coefficients)
