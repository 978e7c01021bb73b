"""CSV output: the one writer behind every table the package dumps."""

import csv

import numpy as np

__all__ = ["write_csv", "write_matrix_field"]


def write_csv(path, header, rows):
    """Write a header row and one line per row of cells.

    Strings and Python ints are written as they are, every other number as
    ``repr(float(.))``, so a table reads back bit for bit.  A float64 array
    is streamed row by row from its Python floats: the same text, faster.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
            fh.writelines(",".join(map(repr, row.tolist())) + "\r\n"
                          for row in rows)
            return
        writer.writerows([v if isinstance(v, (str, int)) else repr(float(v))
                          for v in row] for row in rows)


def write_matrix_field(path, letter, grid, values):
    """Dump samples ``values`` ``(m, n, n)`` on ``grid``: columns ``x``, then
    ``<letter>_ij_re`` and ``<letter>_ij_im`` in row-major order."""
    m, n, _ = values.shape
    header = ["x"] + [f"{letter}_{i + 1}{j + 1}_{part}" for i in range(n)
                      for j in range(n) for part in ("re", "im")]
    rows = ([x] + [p for z in row for p in (z.real, z.imag)]
            for x, row in zip(grid, values.reshape(m, n * n)))
    write_csv(path, header, rows)
