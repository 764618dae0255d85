"""Flat-file exporters: CSV (oracle-grade precision), OBJ meshes, JSON.

CSV cells are numbers formatted with ``%.17g``: 17 significant digits, so
downstream tools can use the rows as oracles.  OBJ carries 9 (visualization
grade).  JSON summaries are written with sorted keys and shortest round-trip
floats, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import json
import math
from itertools import chain, islice
from pathlib import Path

import numpy as np


# Rows formatted per ``%`` operation: big enough that the per-call cost
# vanishes, small enough that the argument tuple and string stay small.
_CSV_CHUNK = 1024


def write_csv(path, header, rows) -> None:
    """Header line, then one line per row of numbers, each cell ``%.17g``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = ",".join(["%.17g"] * len(header)) + "\n"
    block = line * _CSV_CHUNK
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        while cells := tuple(chain.from_iterable(islice(rows, _CSV_CHUNK))):
            k = len(cells) // len(header)
            fh.write((block if k == _CSV_CHUNK else line * k) % cells)


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


def json_dumps(summary: dict) -> str:
    return json.dumps(_jsonable(summary), sort_keys=True, indent=2) + "\n"


def write_json(path, summary: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json_dumps(summary))
