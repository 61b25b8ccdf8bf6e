"""File formats: Matrix Market for operators, CSV for curves.

CSV floats are written with 17 significant digits so identical runs
produce byte-identical files. ``scipy.io`` is imported by the two Matrix
Market functions, so a run that writes only CSVs never loads it.
"""

from __future__ import annotations

import csv

import numpy as np
import scipy.sparse as sp


def write_matrix(path, matrix):
    """Matrix Market file: coordinate format for sparse input, array otherwise."""
    import scipy.io
    scipy.io.mmwrite(path, matrix if sp.issparse(matrix) else np.asarray(matrix))


def read_matrix(path) -> np.ndarray:
    """Dense array of a Matrix Market file."""
    import scipy.io
    matrix = scipy.io.mmread(path)
    if hasattr(matrix, "toarray"):
        matrix = matrix.toarray()
    return np.asarray(matrix)


def _format(value):
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    if isinstance(value, (complex, np.complexfloating)):
        return f"{value.real:.17g}{value.imag:+.17g}j"
    return str(value)


def write_csv(path, header, columns):
    """Write named columns; all columns must share a length."""
    columns = [np.asarray(col) for col in columns]
    lengths = {len(col) for col in columns}
    if len(lengths) != 1:
        raise ValueError(f"columns have unequal lengths {sorted(lengths)}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([_format(v) for v in row])

