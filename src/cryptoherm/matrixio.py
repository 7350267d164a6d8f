"""Structured text format for complex matrices.

One JSON document per matrix::

    {"dim": 2, "data": [[[0.0, 0.0], [1.0, 0.0]],
                        [[1.0, 0.0], [0.0, 0.0]]], "name": "optional tag"}

Entries are explicit ``[re, im]`` pairs, row-major.  Serialization uses
Python's shortest round-trip float repr, so emit -> parse is exact at the
bit level.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import MatrixFileError

__all__ = ["matrix_from_doc", "matrix_to_doc", "read_matrix", "write_matrix"]


def matrix_to_doc(m, name: str | None = None) -> dict:
    """Encode a square complex matrix as a plain-JSON document."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise MatrixFileError(f"only square matrices are encoded, got shape {arr.shape}")
    doc = {
        "dim": int(arr.shape[0]),
        "data": [
            [[float(z.real), float(z.imag)] for z in row] for row in arr
        ],
    }
    if name is not None:
        doc["name"] = str(name)
    return doc


def matrix_from_doc(doc) -> np.ndarray:
    """Decode and validate a matrix document.

    Raises MatrixFileError on any structural problem: missing keys, row or
    entry counts disagreeing with ``dim``, non-numeric or non-finite
    values.
    """
    if not isinstance(doc, dict):
        raise MatrixFileError("matrix document must be a JSON object")
    try:
        dim = doc["dim"]
        data = doc["data"]
    except KeyError as exc:
        raise MatrixFileError(f"matrix document missing key {exc}") from exc
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise MatrixFileError(f"dim must be a positive integer, got {dim!r}")
    if not isinstance(data, list) or len(data) != dim:
        raise MatrixFileError(f"data must hold {dim} rows")
    out = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != dim:
            raise MatrixFileError(f"row {i} must hold {dim} entries")
        for j, pair in enumerate(row):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(
                    isinstance(x, (int, float)) and not isinstance(x, bool)
                    for x in pair
                )
            ):
                raise MatrixFileError(
                    f"entry ({i}, {j}) must be a [re, im] pair of numbers"
                )
            out[i, j] = complex(pair[0], pair[1])
    if not np.isfinite(out).all():
        raise MatrixFileError("matrix document contains non-finite entries")
    return out


def write_matrix(path, m, name: str | None = None) -> None:
    """Write a matrix document to ``path``."""
    Path(path).write_text(json.dumps(matrix_to_doc(m, name), indent=1) + "\n")


def read_matrix(path) -> np.ndarray:
    """Read and validate a matrix document from ``path``."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise MatrixFileError(f"cannot parse matrix file {path}: {exc}") from exc
    return matrix_from_doc(doc)
