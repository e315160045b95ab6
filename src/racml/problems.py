"""Problem data model: QP instances, variable partitions, solver settings.

All numeric data is 64-bit floating point. Matrices may be dense
``numpy.ndarray`` or scipy sparse (stored column-compressed); vectors are
1-D arrays. Randomness is always drawn from ``numpy.random.default_rng``
(PCG64), so any operation taking a seed reproduces bit-identically across
platforms.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional, Union

import numpy as np
import scipy.io
import scipy.sparse as sp

Matrix = Union[np.ndarray, sp.spmatrix]

# Exhaustive order enumeration is factorial in n; hard cap keeps it feasible.
MAX_ENUMERATION_VARS = 10


class CapacityError(ValueError):
    """An exhaustive enumeration was requested beyond the supported size."""


def as_dense(mat: Matrix) -> np.ndarray:
    """A dense or sparse matrix as a dense float64 array; dense float64
    input passes through uncopied."""
    return np.asarray(mat.toarray() if sp.issparse(mat) else mat, dtype=float)


def as_csc(mat: Matrix) -> sp.csc_matrix:
    """The canonical (sorted, no dups) CSC form of ``mat``, never in place."""
    if sp.issparse(mat) and mat.format == "csc" and mat.has_canonical_format:
        return mat
    csc = sp.csc_matrix(mat, copy=True)
    csc.sum_duplicates()
    return csc


def matrix_violations(mat: Matrix, name: str = "matrix") -> list[str]:
    """Structural checks shared by every matrix-carrying type.

    Dense matrices must be 2-D and finite. Sparse matrices must additionally
    carry strictly increasing, in-range row indices within each column.
    """
    issues: list[str] = []
    if sp.issparse(mat):
        csc = mat.tocsc()
        if not np.all(np.isfinite(csc.data)):
            issues.append(f"{name}: contains non-finite entries")
        rows, cols = csc.shape
        indptr, indices = csc.indptr, csc.indices
        if indices.size and (indices.min() < 0 or indices.max() >= rows):
            issues.append(f"{name}: row index out of range [0, {rows})")
        col = np.repeat(np.arange(cols), np.diff(indptr))
        bad = np.flatnonzero((np.diff(indices) <= 0) & (col[1:] == col[:-1]))
        if bad.size:
            issues.append(f"{name}: column {col[bad[0]]} has duplicate or "
                          "decreasing row indices")
    else:
        arr = np.asarray(mat)
        if arr.ndim != 2:
            issues.append(f"{name}: expected a 2-D array, got ndim={arr.ndim}")
        elif not np.all(np.isfinite(arr)):
            issues.append(f"{name}: contains non-finite entries")
    return issues


def _vec(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class QpProblem:
    """Linearly constrained box QP: min 1/2 x'Hx + c'x  s.t. Ax = b, l <= x <= u.

    ``H`` (symmetric PSD) and ``A`` may be absent, meaning a zero quadratic
    term / no equality constraints. A sparse ``H`` or ``A`` is stored as
    given when CSR or canonical CSC; any other sparse format, including a
    non-canonical CSC, is stored as ``as_csc`` makes it, since the sweep
    slices columns. ``H`` may also be an implicit symmetric operator: an
    object with ``shape`` whose ``H[:, idx]`` is the dense n x s column
    strip and ``H @ x`` the product; validation then checks its shape only.
    Bounds default to the whole space (``-inf``/``+inf`` sentinels).
    """

    c: np.ndarray
    H: Optional[Matrix] = None
    A: Optional[Matrix] = None
    b: Optional[np.ndarray] = None
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None

    def __post_init__(self):
        c = _vec(self.c, "c")
        object.__setattr__(self, "c", c)
        n = c.size
        for name in ("H", "A"):
            if sp.issparse(mat := getattr(self, name)) and mat.format != "csr":
                object.__setattr__(self, name, as_csc(mat))
        if self.b is not None:
            object.__setattr__(self, "b", _vec(self.b, "b"))
        lo = _vec(self.lower, "lower") if self.lower is not None \
            else np.full(n, -np.inf)
        hi = _vec(self.upper, "upper") if self.upper is not None \
            else np.full(n, np.inf)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def n(self) -> int:
        return self.c.size

    @property
    def m(self) -> int:
        if self.A is None:
            return 0
        return self.A.shape[0]


@dataclass(frozen=True)
class ValidationReport:
    """Accumulated invariant violations; empty means the problem is valid."""

    issues: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.issues

    def __bool__(self) -> bool:  # truthy iff valid
        return self.ok


def validate_problem(problem: QpProblem) -> ValidationReport:
    """Check every QpProblem invariant and report all violations.

    Validation never raises; an empty report means the problem is valid.
    """
    issues: list[str] = []
    n = problem.n
    if problem.H is not None:
        explicit = isinstance(problem.H, np.ndarray) or sp.issparse(problem.H)
        if explicit:
            issues += matrix_violations(problem.H, "H")
        if problem.H.shape != (n, n):
            issues.append(f"H: expected shape ({n}, {n}), got {problem.H.shape}")
        elif explicit and not issues and n:
            # sparse H stays sparse: abs and max work on its stored entries
            H = problem.H if sp.issparse(problem.H) else as_dense(problem.H)
            scale = max(1.0, float(abs(H).max()))
            if abs(H - H.T).max() > 1e-12 * scale:
                issues.append("H: not symmetric within 1e-12 relative tolerance")
    if problem.A is not None:
        issues += matrix_violations(problem.A, "A")
        if problem.A.shape[1] != n:
            issues.append(f"A: expected {n} columns, got {problem.A.shape[1]}")
        if problem.b is None:
            issues.append("b: required when A is present")
        elif problem.b.size != problem.A.shape[0]:
            issues.append(
                f"b: length {problem.b.size} does not match {problem.A.shape[0]} rows of A")
        if problem.b is not None and not np.all(np.isfinite(problem.b)):
            issues.append("b: contains non-finite entries")
    elif problem.b is not None and problem.b.size:
        issues.append("b: present without A")
    if not np.all(np.isfinite(problem.c)):
        issues.append("c: contains non-finite entries")
    for name, v in (("lower", problem.lower), ("upper", problem.upper)):
        if v.size != n:
            issues.append(f"{name}: length {v.size} does not match n={n}")
        if np.any(np.isnan(v)):
            issues.append(f"{name}: contains NaN")
    if problem.lower.size == n and problem.upper.size == n and \
            np.any(problem.lower > problem.upper):
        issues.append("bounds: lower > upper for at least one variable")
    return ValidationReport(tuple(issues))


# A block order: the blocks one sweep updates, in sweep order, each a
# sorted tuple of variable indices. Its blocks as a frozenset identify the
# partition; a full order's indices, sorted, are range(n).
Order = tuple[tuple[int, ...], ...]


def chunk_indices(indices: np.ndarray, block_size: int) -> Order:
    """Split an index vector into consecutive chunks of the block size.

    Each chunk is sorted internally; block membership is a set property and
    the canonical form makes partitions comparable. A short last chunk holds
    the remainder when the block size does not divide the length.
    """
    full = indices.size - indices.size % block_size
    chunks = np.sort(indices[:full].reshape(-1, block_size), axis=1).tolist()
    if full < indices.size:
        chunks.append(np.sort(indices[full:]).tolist())
    # tuple() of a list allocates the exact size; of a map it over-allocates
    # and shrinks, which grows CPython's tuple free lists by one per call
    return tuple([tuple(chunk) for chunk in chunks])


def make_partition(n: int, block_size: int, seed: int = 0,
                   randomize: bool = False) -> Order:
    """Group n variables into blocks of the given size.

    With ``randomize`` the indices are drawn without replacement from a
    seed-determined shuffle before chunking; otherwise blocks are consecutive
    ranges. Deterministic given (n, block_size, seed, randomize).
    """
    if block_size < 1 or block_size > n:
        raise ValueError(
            f"block_size must be in [1, n]; got block_size={block_size}, n={n}")
    if randomize:
        perm = np.random.default_rng(seed).permutation(n)
    else:
        perm = np.arange(n)
    return chunk_indices(perm, block_size)


def _block_sequences(n: int, p: int, what: str, anchored: bool):
    """Every sequence of p sorted blocks of n/p indices covering range(n), in
    lexicographic order. With ``anchored`` each block starts with the smallest
    index no earlier block holds, so each partition comes once."""
    if p < 1 or n % p != 0:
        raise ValueError(f"p must divide n; got n={n}, p={p}")
    if n > MAX_ENUMERATION_VARS:
        raise CapacityError(
            f"{what} enumeration is limited to n <= {MAX_ENUMERATION_VARS}; got n={n}")
    s = n // p

    def rec(rest: tuple[int, ...], blocks_left: int):
        if blocks_left == 0:
            yield ()
            return
        lead = rest[:1] if anchored else ()
        for more in itertools.combinations(rest[len(lead):], s - len(lead)):
            head = lead + more
            remaining = tuple(i for i in rest if i not in head)
            for tail in rec(remaining, blocks_left - 1):
                yield (head,) + tail

    return rec(tuple(range(n)), p)


def enumerate_orders(n: int, p: int) -> list[Order]:
    """All distinct block update orders for n variables in p equal blocks.

    Two orders are distinct when they differ in block membership or in block
    sequence; the sweep is invariant to ordering inside a block, so within a
    block indices are kept sorted. The result has exactly n!/(s!)^p entries.
    """
    return list(_block_sequences(n, p, "order", anchored=False))


def enumerate_partitions(n: int, p: int) -> list[Order]:
    """All distinct partitions of n variables into p equal blocks.

    Block order is irrelevant here; the first block is anchored to the
    smallest unassigned index so each partition appears once. The result has
    exactly n!/(p!(s!)^p) entries.
    """
    return list(_block_sequences(n, p, "partition", anchored=True))


class Mode(str, Enum):
    """Block assembly policy for the sweep loop."""

    RAC = "rac"        # fresh random partition every sweep
    RP = "rp"          # fixed partition, freshly permuted block order
    CYCLIC = "cyclic"  # fixed partition, fixed order


class Status(str, Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters for the multi-block sweep solver."""

    mode: Mode = Mode.RAC
    block_size: int = 100
    beta_penalty: float = 1.0
    max_iters: int = 100
    tol_primal: float = 1e-6
    tol_dual: float = 1e-6
    seed: int = 0
    fixed_iterations: bool = False

    def validate(self, n: int) -> None:
        if not 0 < self.beta_penalty < math.inf:
            raise ValueError(
                f"beta_penalty must be finite and > 0, got {self.beta_penalty}")
        if not (1 <= self.block_size <= n):
            raise ValueError(
                f"block_size must be in [1, n]; got {self.block_size} with n={n}")
        if not (self.tol_primal > 0 and self.tol_dual > 0):  # NaN fails too
            raise ValueError("tolerances must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class SweepRun:
    """How a sweep run ended: sweep count, status and per-sweep residuals."""

    iterations: int
    status: Status
    primal_residual_history: np.ndarray
    dual_residual_history: np.ndarray

    @property
    def primal_residual(self) -> float:
        return float(self.primal_residual_history[-1]) if self.iterations else math.inf

    @property
    def dual_residual(self) -> float:
        return float(self.dual_residual_history[-1]) if self.iterations else math.inf


@dataclass
class SolveResult(SweepRun):
    """Output of a solve: the sweep run plus the final primal/dual point and
    the running products the sweep carried to it, ``g = c + Hx`` and
    ``r = Ax - b`` (empty without A), as the last residuals read them."""

    x: np.ndarray
    y: np.ndarray
    g: np.ndarray
    r: np.ndarray


def _read_vector(path: Path) -> np.ndarray:
    values = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line:
            values.append(float(line))
    return np.asarray(values, dtype=float)


def _read_matrix(path: Path) -> Matrix:
    mat = scipy.io.mmread(str(path))
    if sp.issparse(mat):
        return as_csc(mat)
    return np.asarray(mat, dtype=float)


def load_qp_manifest(path) -> QpProblem:
    """Load a QP from a JSON manifest referencing Matrix Market / text files.

    Schema: {"n", "m", "H": path|null, "A": path|null, "c": path,
    "b": path|null, "lower": path|null, "upper": path|null}. Relative paths
    resolve against the manifest's directory. Missing H/A mean zero/absent.
    """
    path = Path(path)
    spec = json.loads(path.read_text())
    base = path.parent

    def resolve(key):
        rel = spec.get(key)
        return None if rel is None else base / rel

    n = int(spec["n"])
    m = int(spec.get("m") or 0)
    c = _read_vector(resolve("c"))
    if c.size != n:
        raise ValueError(f"manifest n={n} but c has {c.size} entries")
    H = _read_matrix(resolve("H")) if spec.get("H") else None
    A = _read_matrix(resolve("A")) if spec.get("A") else None
    b = _read_vector(resolve("b")) if spec.get("b") else None
    if A is not None and A.shape != (m, n):
        raise ValueError(f"manifest m,n=({m},{n}) but A has shape {A.shape}")
    lower = _read_vector(resolve("lower")) if spec.get("lower") else None
    upper = _read_vector(resolve("upper")) if spec.get("upper") else None
    return QpProblem(c=c, H=H, A=A, b=b, lower=lower, upper=upper)
