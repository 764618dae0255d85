"""The block-formatted writers against the per-cell and per-line rules they
replaced, byte for byte.  ``write_csv`` takes a table as its columns, which
broadcast against each other; the oracle formats the rows of the broadcast
table cell by cell."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_csv
from solgeo.exporters import _CSV_CHUNK, write_csv, write_obj

HEADER = ["a", "b", "c"]


def reference_obj(vertices, shape):
    n, m = shape
    out = [f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n" for v in np.asarray(vertices, dtype=float)]
    for i in range(n - 1):
        for j in range(m - 1):
            a = i * m + j + 1
            out.append(f"f {a} {a + 1} {a + m + 1} {a + m}\n")
    return "".join(out).encode()


def test_csv_special_cells(tmp_path):
    cells = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
             1.7976931348623157e308, 1e16, 0.1, np.float64(0.1), np.float64(-2.5e-300),
             1.0 / 3.0, 0, 1, -7, np.int64(3), 2**60, np.float32(0.1)]
    rows = [cells[i:i + 3] for i in range(0, len(cells), 3)]
    path = tmp_path / "s.csv"
    write_csv(path, HEADER, [[row[j] for row in rows] for j in range(3)])
    assert path.read_bytes() == reference_csv(HEADER, rows)


@pytest.mark.parametrize("n_rows", [0, 1, _CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1,
                                    3 * _CSV_CHUNK + 5])
def test_csv_chunk_edges(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    data = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(-300, 300, (n_rows, 3))
    path = tmp_path / "e.csv"
    write_csv(path, HEADER, list(data.T))
    assert path.read_bytes() == reference_csv(HEADER, data.tolist())


def test_csv_one_shot_iterator(tmp_path):
    # columns that can be read once, as the benchmark's traced runs pass them
    x = np.linspace(-2.0, 2.0, 2 * _CSV_CHUNK + 17)
    path = tmp_path / "z.csv"
    write_csv(path, HEADER, iter([x, x * x, np.exp(x)]))
    assert path.read_bytes() == reference_csv(HEADER, zip(x, x * x, np.exp(x)))


# +-0.0, +-inf, 5e-324, +-the largest float, and NaNs with four payloads
EDGE_CELLS = np.array([0x0, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000, 0x1,
                       0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF, 0x7FF8000000000000,
                       0xFFF8000000000000, 0x7FF0000000000001, 0x7FF80000DEADBEEF],
                      dtype=np.uint64).view(np.float64)


def _pool(draw, rng, size):
    """``size`` values with distinct bit patterns, drawn finite values and a
    drawn subset of ``EDGE_CELLS`` among them, in random order."""
    edges = EDGE_CELLS[draw(st.lists(st.booleans(), min_size=len(EDGE_CELLS),
                                     max_size=len(EDGE_CELLS)))]
    finite = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    pool = np.concatenate([edges, finite])[:size]
    assert len(np.unique(pool.view(np.int64))) == size
    return rng.permutation(pool)


#: row counts around the block size, and of at least three blocks for the
#: long-period columns
ROWS = [0, 1, 2, _CSV_CHUNK // 2, _CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1, 2 * _CSV_CHUNK + 3]
LONG_ROWS = [3 * _CSV_CHUNK, 3 * _CSV_CHUNK + 5, 4 * _CSV_CHUNK + 1]


@st.composite
def tables(draw):
    """Each column is one of four kinds: a small pool of finite and edge
    values, so that cells repeat; every cell distinct; a period of 600 to
    1,500 distinct values tiled over three blocks or more, so more than half
    the cells of every full block are distinct but at most half the table's;
    or exactly half the cells distinct (rounded down), the lookup rule's
    boundary."""
    kinds = draw(st.lists(st.sampled_from(["pool", "distinct", "long", "half"]),
                          min_size=1, max_size=4))
    n_rows = draw(st.sampled_from(LONG_ROWS if "long" in kinds else ROWS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in kinds:
        if kind == "pool":
            finite = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                   min_size=1, max_size=4))
            edges = draw(st.lists(st.booleans(), min_size=len(EDGE_CELLS),
                                  max_size=len(EDGE_CELLS)))
            pool = np.concatenate([np.array(finite, dtype=float), EDGE_CELLS[edges]])
            columns.append(pool[rng.integers(0, len(pool), n_rows)])
        elif kind == "distinct":
            columns.append(rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows))
        elif kind == "long":
            period = draw(st.integers(600, 1500))
            columns.append(np.resize(_pool(draw, rng, period), n_rows))
        else:
            pool = _pool(draw, rng, max(n_rows // 2, 1))
            columns.append(rng.permutation(np.resize(pool, n_rows)))
    return np.column_stack(columns)


@settings(max_examples=60, deadline=None)
@given(tables())
def test_csv_matches_per_cell_formatting(data):
    header = [f"c{j}" for j in range(data.shape[1])]
    expected = reference_csv(header, data.tolist())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "h.csv"
        # strided columns, contiguous columns, and lists
        for columns in (data.T, np.ascontiguousarray(data.T), data.T.tolist()):
            write_csv(path, header, columns)
            assert path.read_bytes() == expected


@st.composite
def broadcast_columns(draw):
    """Columns of 0 to 3 axes that broadcast against each other: each keeps
    each axis of a drawn shape or collapses it to 1, and may drop leading
    axes.  A column holds a small pool of values, so that it repeats, or
    distinct values."""
    shape = tuple(draw(st.lists(st.integers(0, 13), min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        keep = draw(st.lists(st.booleans(), min_size=len(shape), max_size=len(shape)))
        own = tuple(n if k else 1 for n, k in zip(shape, keep))
        own = own[draw(st.integers(0, len(own))):]
        size = int(np.prod(own))
        if draw(st.booleans()):
            pool = np.concatenate([rng.standard_normal(3), EDGE_CELLS[:3]])
            values = pool[rng.integers(0, len(pool), size)]
        else:
            values = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
        columns.append(values.reshape(own))
    return columns


@settings(max_examples=80, deadline=None)
@given(broadcast_columns())
def test_csv_of_broadcast_columns_is_the_dense_table(columns):
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    header = [f"c{j}" for j in range(len(columns))]
    dense = [np.broadcast_to(c, shape).ravel() for c in columns]
    expected = reference_csv(header, zip(*dense))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "b.csv"
        write_csv(path, header, columns)
        assert path.read_bytes() == expected


@pytest.mark.parametrize("shape", [(7, 5), (1, 6), (6, 1)])
def test_obj_matches_line_writer(tmp_path, shape):
    rng = np.random.default_rng(sum(shape))
    verts = rng.standard_normal((shape[0] * shape[1], 3)) * [1.0, 1e-7, 1e5]
    path = tmp_path / "m.obj"
    write_obj(path, verts, shape)
    assert path.read_bytes() == reference_obj(verts, shape)
    n_faces = sum(1 for line in path.read_text().splitlines() if line.startswith("f "))
    assert n_faces == (shape[0] - 1) * (shape[1] - 1)
