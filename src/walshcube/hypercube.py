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
order (see `_fwht`).

Forward coefficients carry the averaging factor: fhat(A) is the mean of
f(eps) * w_A(eps) over the cube, so fhat(empty set) is the mean of f.  The
inverse direction carries no factor.

Public constructors copy their table; the transforms and operators hand the
arrays they compute to `_own`, which checks them and sets them read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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


def _check_dimension(n: int) -> None:
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension n must be in [1, {MAX_DIMENSION}], got {n}")


def _coerce_table(values: np.ndarray, what: str) -> tuple[int, int, np.ndarray]:
    """Validate a dense (2^n, m) table and return (n, m, read-only float64 copy)."""
    return _check_table(np.array(values, dtype=np.float64, order="C"), what)


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
    values = np.asarray(values, dtype=np.float64)
    rows, m = (values.shape + (1, 1))[:2]
    return values, rows.bit_length() - 1, m


def _check_declared(data: dict, n: int, m: int) -> None:
    """An input error unless a reader's optional "n" and "m" fields are (n, m)."""
    if "n" in data and int(data["n"]) != n:
        raise ValueError(f"declared n={data['n']} does not match table with 2^{n} rows")
    if "m" in data and int(data["m"]) != m:
        raise ValueError(f"declared m={data['m']} does not match row length {m}")


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

    def __post_init__(self) -> None:
        n, m, table = _coerce_table(self.values, self._what)
        if n != self.n or m != self.m:
            raise ValueError(
                f"declared shape (n={self.n}, m={self.m}) does not match "
                f"table of {table.shape[0]} rows x {table.shape[1]} columns"
            )
        object.__setattr__(self, "values", table)

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
        if not 0 <= subset < (1 << n):
            raise ValueError(f"subset bitmask {subset} out of range for n={n}")
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
        f = cls.from_values(data["values"])
        _check_declared(data, f.n, f.m)
        return f


@dataclass(frozen=True, eq=False)
class WalshSpectrum:
    """Walsh coefficients fhat(A) indexed by the subset bitmask A."""

    n: int
    m: int
    coefficients: np.ndarray
    _what = "spectrum"

    def __post_init__(self) -> None:
        n, m, table = _coerce_table(self.coefficients, self._what)
        if n != self.n or m != self.m:
            raise ValueError(
                f"declared shape (n={self.n}, m={self.m}) does not match "
                f"coefficient table of {table.shape[0]} rows x {table.shape[1]} columns"
            )
        object.__setattr__(self, "coefficients", table)

    @classmethod
    def from_coefficients(cls, coefficients: np.ndarray) -> "WalshSpectrum":
        coefficients, n, m = _table_dims(coefficients)
        return cls(n, m, coefficients)

    def coefficient(self, subset: int) -> np.ndarray:
        if not 0 <= subset < (1 << self.n):
            raise ValueError(f"subset bitmask {subset} out of range for n={self.n}")
        return self.coefficients[subset]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "m": self.m, "coefficients": self.coefficients.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "WalshSpectrum":
        s = cls.from_coefficients(data["coefficients"])
        _check_declared(data, s.n, s.m)
        return s


@dataclass(frozen=True)
class SignAssignment:
    """A sign vector delta in {-1,+1}^n encoded with the point-bit convention."""

    n: int
    bitmask: int

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        if not 0 <= self.bitmask < (1 << self.n):
            raise ValueError(f"bitmask {self.bitmask} out of range for n={self.n}")

    def signs(self) -> np.ndarray:
        """The vector (delta_1, ..., delta_n) as floats."""
        return sign_vector(self.n, self.bitmask)


def sign_vector(n: int, mask: int) -> np.ndarray:
    """Decode a bitmask into the sign vector (+1 for a clear bit, -1 for a set bit)."""
    bits = (mask >> np.arange(n)) & 1
    return 1.0 - 2.0 * bits.astype(np.float64)


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
        if not 0 <= subset < (1 << n):
            raise ValueError(f"subset bitmask {subset} out of range for n={n}")
        if not 0 <= point < (1 << n):
            raise ValueError(f"point index {point} out of range for n={n}")
    return -1 if int(subset & point).bit_count() & 1 else 1


def _character_column(subset: int, n: int) -> np.ndarray:
    """w_A evaluated at every point index, as a float vector of +-1."""
    overlap = np.bitwise_count(np.bitwise_and(np.arange(1 << n, dtype=np.uint64), np.uint64(subset)))
    return 1.0 - 2.0 * (overlap & np.uint64(1)).astype(np.float64)


def character_matrix(n: int) -> np.ndarray:
    """The full 2^n x 2^n matrix W[a, k] = w_A(eps_k).  O(4^n) memory; n <= 10."""
    if n > 10:
        raise ValueError("dense character matrix is limited to n <= 10")
    idx = np.arange(1 << n, dtype=np.uint64)
    overlap = np.bitwise_count(np.bitwise_and(idx[:, None], idx[None, :]))
    return 1.0 - 2.0 * (overlap & np.uint64(1)).astype(np.float64)


def _fwht(table: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard butterfly along axis -2.

    Computes out[s] = sum_k table[k] * (-1)^popcount(k & s) in O(n 2^n)
    per column, for a (2^n, m) table or a (..., 2^n, m) stack of them.
    Pease's constant-geometry order: each column, transposed to a contiguous
    row x, goes through n stages y[j] = x[2j] + x[2j+1], y[j + 2^(n-1)] =
    x[2j] - x[2j+1].  A stage rotates the position bits right by one, so stage
    t pairs bit t - 1 of the natural index with the operands and order of the
    in-place stage h = 2^(t-1) (the oracle in `tests/_naive.py`), and n
    rotations restore natural order: same bits, one long strided loop per
    ufunc, and every table of a stack gets the bits it gets alone.
    """
    rows, columns = table.shape[-2:]
    source = np.empty(table.shape[:-2] + (columns, rows))
    np.copyto(source, np.swapaxes(table, -1, -2))
    target = np.empty_like(source)  # stages alternate between two buffers
    half = rows // 2
    for _ in range(rows.bit_length() - 1):
        np.add(source[..., 0::2], source[..., 1::2], out=target[..., :half])
        np.subtract(source[..., 0::2], source[..., 1::2], out=target[..., half:])
        source, target = target, source
    return np.ascontiguousarray(np.swapaxes(source, -1, -2))


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
