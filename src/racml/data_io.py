"""Dataset ingestion, synthetic generators, and the sparse text format.

The external format is the de-facto "<label> <idx>:<val> ..." sparse text
layout with 1-based, strictly increasing indices per line. Parsing is
strict: every documented malformation raises, naming the offending line.
Writing is canonical (shortest round-trip floats, integral values without a
decimal point, single spaces, newline-terminated), so write o parse is the
identity on canonical files and parse o write is the identity on datasets.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, TextIO, Union

import numpy as np
import scipy.sparse as sp

from .problems import Matrix


class LibsvmFormatError(ValueError):
    """Malformed sparse-text input; the message names the 1-based line."""

    def __init__(self, line: int, detail: str):
        super().__init__(f"line {line}: {detail}")
        self.line = line


@dataclass
class Dataset:
    """Observations (n rows x p feature columns) with a target per row."""

    X: Matrix
    y: np.ndarray
    feature_count: int


def format_value(v: float) -> str:
    """Canonical decimal: shortest round-trip, integral values without '.0'."""
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite value {v!r}")
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def _open_maybe(stream_or_path, mode: str):
    if isinstance(stream_or_path, (str, Path)):
        return open(stream_or_path, mode, encoding="utf-8"), True
    return stream_or_path, False


def parse_libsvm(stream: Union[str, Path, TextIO],
                 declared_features: Optional[int] = None,
                 classification: bool = False) -> Dataset:
    """Read a sparse text dataset from a path or text stream.

    ``declared_features`` raises the column count above the maximum index
    seen. ``classification`` requires every label to be exactly +1 or -1.
    """
    handle, owns = _open_maybe(stream, "r")
    labels: list[float] = []
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    max_index = 0
    try:
        row = 0
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            tokens = line.split()
            try:
                label = float(tokens[0])
            except ValueError:
                raise LibsvmFormatError(lineno, f"invalid label {tokens[0]!r}")
            if not math.isfinite(label):
                raise LibsvmFormatError(lineno, f"non-finite label {tokens[0]!r}")
            if classification and label not in (-1.0, 1.0):
                raise LibsvmFormatError(
                    lineno, f"classification label must be +1/-1, got {tokens[0]!r}")
            labels.append(label)
            prev_index = 0
            for pos, token in enumerate(tokens[1:], start=2):
                head, sep, tail = token.partition(":")
                if not sep:
                    raise LibsvmFormatError(
                        lineno, f"field {pos}: expected index:value, got {token!r}")
                try:
                    index = int(head)
                except ValueError:
                    raise LibsvmFormatError(
                        lineno, f"field {pos}: invalid index {head!r}")
                if index < 1:
                    raise LibsvmFormatError(
                        lineno, f"field {pos}: index must be >= 1, got {index}")
                if index <= prev_index:
                    raise LibsvmFormatError(
                        lineno,
                        f"field {pos}: index {index} not strictly increasing "
                        f"after {prev_index}")
                try:
                    value = float(tail)
                except ValueError:
                    raise LibsvmFormatError(
                        lineno, f"field {pos}: invalid value {tail!r}")
                if not math.isfinite(value):
                    raise LibsvmFormatError(
                        lineno, f"field {pos}: non-finite value {tail!r}")
                prev_index = index
                rows.append(row)
                cols.append(index - 1)  # 1-based externally, 0-based internally
                vals.append(value)
            max_index = max(max_index, prev_index)
            row += 1
    finally:
        if owns:
            handle.close()
    feature_count = max(max_index, declared_features or 0)
    X = sp.csc_matrix(
        (vals, (rows, cols)), shape=(row, feature_count), dtype=float)
    X.sort_indices()
    return Dataset(X=X, y=np.asarray(labels, dtype=float),
                   feature_count=feature_count)


def write_libsvm(dataset: Dataset, stream: Union[str, Path, TextIO]) -> None:
    """Write a dataset in canonical sparse text form (zeros omitted)."""
    X = sp.csr_matrix(dataset.X)  # dense input is compressed first
    X.sort_indices()
    handle, owns = _open_maybe(stream, "w")
    try:
        for i in range(X.shape[0]):
            start, end = X.indptr[i], X.indptr[i + 1]
            fields = [format_value(dataset.y[i])]
            for j, v in zip(X.indices[start:end], X.data[start:end]):
                if v != 0.0:
                    fields.append(f"{j + 1}:{format_value(v)}")
            handle.write(" ".join(fields) + "\n")
    finally:
        if owns:
            handle.close()


def libsvm_to_string(dataset: Dataset) -> str:
    buf = io.StringIO()
    write_libsvm(dataset, buf)
    return buf.getvalue()


def gen_regression(n: int, p: int, x_density: float = 1.0,
                   coef_density: float = 0.1, noise_sd: float = 0.0,
                   seed: int = 0) -> tuple[Dataset, np.ndarray]:
    """Synthetic regression data with a sparse planted coefficient vector.

    Design entries are present independently with probability ``x_density``
    and drawn Uniform(0,1); planted coefficients are standard Gaussian,
    nonzero with probability ``coef_density``. Targets are X @ beta plus
    Gaussian noise of the given standard deviation. Fully seed-determined.
    """
    if not (0.0 < x_density <= 1.0):
        raise ValueError(f"x_density must be in (0, 1], got {x_density}")
    if not (0.0 < coef_density <= 1.0):
        raise ValueError(f"coef_density must be in (0, 1], got {coef_density}")
    if n < 1 or p < 1:
        raise ValueError("n and p must be >= 1")
    rng = np.random.default_rng(seed)
    values = rng.random((n, p))
    mask = rng.random((n, p)) < x_density if x_density < 1.0 else None
    dense = values if mask is None else np.where(mask, values, 0.0)
    beta = rng.standard_normal(p)
    beta[rng.random(p) >= coef_density] = 0.0
    y = dense @ beta + noise_sd * rng.standard_normal(n)
    X: Matrix = sp.csc_matrix(dense) if x_density < 0.5 else dense
    return Dataset(X=X, y=y, feature_count=p), beta


def gen_blobs(n_per_class: int, dim: int = 2, center_distance: float = 6.0,
              seed: int = 0) -> Dataset:
    """Two unit-variance Gaussian clusters at +-(distance/2) along axis 0.

    Rows are the +1 class followed by the -1 class; seed-determined.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    shift = np.zeros(dim)
    shift[0] = center_distance / 2.0
    pos = rng.standard_normal((n_per_class, dim)) + shift
    neg = rng.standard_normal((n_per_class, dim)) - shift
    X = np.vstack([pos, neg])
    y = np.concatenate([np.ones(n_per_class), -np.ones(n_per_class)])
    return Dataset(X=X, y=y, feature_count=dim)
