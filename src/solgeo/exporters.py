"""Flat-file exporters: CSV (oracle-grade precision), OBJ meshes, JSON.

CSV cells are numbers formatted with ``%.17g``: 17 significant digits, so
downstream tools can use the rows as oracles.  The writer formats each
distinct value of a column once over the whole table and looks the text up
for its other cells: the bytes are those of formatting every cell.  OBJ
carries 9 (visualization grade).  JSON summaries are written with sorted
keys and shortest round-trip floats, so identical inputs give
byte-identical files.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from pathlib import Path

import numpy as np


# Rows written per block: big enough that the per-call cost vanishes, small
# enough that the block's argument tuple and strings stay small.
_CSV_CHUNK = 1024


def write_csv(path, header, rows) -> None:
    """Header line, then one line per row of numbers, each cell ``%.17g``.

    ``rows`` is anything ``np.asarray(rows, dtype=float)`` takes, or an
    iterator of rows.  A column with at most half its cells distinct over
    the whole table has each distinct value formatted once; distinct means a
    distinct bit pattern, since -0.0 and 0.0 print differently.  Other
    columns are formatted cell by cell, each run of adjacent ones with one
    ``%`` template per block of ``_CSV_CHUNK`` rows, which gives the run's
    text of each row.  A block's lines are its rows' pieces joined by commas.
    """
    if isinstance(rows, Iterator):
        rows = list(rows)
    m = len(header)
    data = np.asarray(rows, dtype=float).reshape(-1, m)
    # a line's pieces, left to right: (j, k, text) is columns j..k-1, where
    # text is the text of every cell of a looked-up column (k = j + 1), or
    # None for a run of columns formatted per cell
    pieces = []
    for j, col in enumerate(data.T):
        distinct, inverse = np.unique(col.view(np.int64), return_inverse=True)
        if 2 * len(distinct) <= len(col):
            text = np.array(["%.17g" % v for v in distinct.view(float).tolist()], object)
            pieces.append((j, j + 1, text[inverse]))
        elif pieces and pieces[-1][2] is None:
            pieces[-1] = (pieces[-1][0], j + 1, None)
        else:
            pieces.append((j, j + 1, None))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(data), _CSV_CHUNK):
            block = data[start:start + _CSV_CHUNK]
            parts = []
            for j, k, text in pieces:
                if text is None:
                    line = ",".join(["%.17g"] * (k - j)) + "\n"
                    cells = block[:, j:k].ravel().tolist()
                    parts.append((line * len(block) % tuple(cells)).split("\n")[:-1])
                else:
                    parts.append(text[start:start + len(block)].tolist())
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
