"""Flat-file exporters: CSV (oracle-grade precision), OBJ meshes, JSON.

CSV cells are numbers formatted with ``%.17g``: 17 significant digits, so
downstream tools can use the rows as oracles.  The writer takes a table as
columns that broadcast against each other, each at its own shape, formats
each distinct value of a column once and looks the text up for its other
cells: the bytes are those of formatting every cell.  OBJ carries 9
(visualization grade).  JSON summaries are written with sorted keys and
shortest round-trip floats, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Iterator
from pathlib import Path

import numpy as np


# Rows written per block: big enough that the per-call cost vanishes, small
# enough that the block's argument tuple and strings stay small.
_CSV_CHUNK = 1024


def write_csv(path, header, columns) -> None:
    """Header line, then one line per row of numbers, each cell ``%.17g``.

    ``columns`` (or an iterator of them) holds one array per header name;
    they broadcast against each other, and the rows are the broadcast shape
    in C order.  A column with at most half the table's cells distinct has
    each distinct value of its own array formatted once (distinct bit
    patterns: -0.0 and 0.0 print differently), and adjacent such columns are
    joined once at their joint shape while it is smaller than the table.
    Each run of other columns is formatted with one ``%`` template per block
    of ``_CSV_CHUNK`` rows.  A block's lines are its rows' pieces joined.
    """
    if isinstance(columns, Iterator):
        columns = list(columns)
    columns = [np.asarray(c, dtype=float) for c in columns]
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    n_rows = math.prod(shape)
    # a line's pieces, left to right: (looked up, the texts of adjacent
    # looked-up columns or a run of columns formatted per cell)
    pieces = []
    for col in columns:
        distinct, inverse = np.unique(col.view(np.int64).ravel(), return_inverse=True)
        lookup = 2 * len(distinct) <= n_rows
        if lookup:
            text = np.array(["%.17g" % v for v in distinct.view(float).tolist()], object)
            col = text[inverse].reshape(col.shape)
        if pieces and pieces[-1][0] == lookup and (not lookup or math.prod(
                np.broadcast_shapes(col.shape, *(c.shape for c in pieces[-1][1]))) < n_rows):
            pieces[-1][1].append(col)
        else:
            pieces.append((lookup, [col]))
    # per piece, None and each row's text, or a %-template and each row's cells
    flat = []
    for lookup, cols in pieces:
        if lookup:
            text = functools.reduce(lambda a, b: a + "," + b, cols)  # at the joint shape
            flat.append((None, np.broadcast_to(np.asarray(text, object), shape).ravel()))
        else:
            cells = np.stack([np.broadcast_to(c, shape) for c in cols], axis=-1)
            flat.append((",".join(["%.17g"] * len(cols)) + "\n",
                         cells.reshape(n_rows, len(cols))))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, _CSV_CHUNK):
            parts = []
            for line, cells in flat:
                block = cells[start:start + _CSV_CHUNK]
                if line is None:
                    parts.append(block.tolist())
                else:
                    parts.append((line * len(block) % tuple(block.ravel().tolist()))
                                 .split("\n")[:-1])
            fh.write("\n".join(map(",".join, zip(*parts))) + "\n")


def write_obj(path, vertices, shape) -> None:
    """Quad mesh over a structured grid.

    ``vertices`` is an (n*m, 3) array in row-major (eps, t) order with grid
    ``shape`` = (n, m); faces are the grid quads.
    """
    n, m = shape
    verts = np.asarray(vertices, dtype=float)
    first = (np.arange(n - 1)[:, None] * m + np.arange(m - 1) + 1).ravel()
    faces = np.stack([first, first + 1, first + m + 1, first + m], axis=-1)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("v %.9g %.9g %.9g\n" * len(verts) % tuple(verts.ravel().tolist()))
        fh.write("f %d %d %d %d\n" * len(faces) % tuple(faces.ravel().tolist()))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return None if math.isnan(f) else f
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def write_json(path, summary: dict) -> str:
    """Write ``summary`` to ``path`` and return the text written."""
    text = json.dumps(_jsonable(summary), sort_keys=True, indent=2) + "\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return text
