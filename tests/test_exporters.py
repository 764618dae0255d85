"""The block-formatted writers against the per-cell and per-line rules they
replaced, byte for byte."""

import numpy as np
import pytest

from solgeo.exporters import _CSV_CHUNK, write_csv, write_obj

HEADER = ["a", "b", "c"]


def reference_csv(header, rows):
    lines = [",".join(header)]
    lines += [",".join(f"{float(v):.17g}" for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


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
    write_csv(path, HEADER, rows)
    assert path.read_bytes() == reference_csv(HEADER, rows)


@pytest.mark.parametrize("n_rows", [0, 1, _CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1,
                                    3 * _CSV_CHUNK + 5])
def test_csv_chunk_edges(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    data = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(-300, 300, (n_rows, 3))
    rows = [list(r) for r in data]
    path = tmp_path / "e.csv"
    write_csv(path, HEADER, rows)
    assert path.read_bytes() == reference_csv(HEADER, rows)


def test_csv_one_shot_iterator(tmp_path):
    # the rows as the CLI passes them: a zip over raveled arrays, read once
    x = np.linspace(-2.0, 2.0, 2 * _CSV_CHUNK + 17)
    path = tmp_path / "z.csv"
    write_csv(path, HEADER, iter(zip(x, x * x, np.exp(x))))
    assert path.read_bytes() == reference_csv(HEADER, zip(x, x * x, np.exp(x)))


@pytest.mark.parametrize("shape", [(7, 5), (1, 6), (6, 1)])
def test_obj_matches_line_writer(tmp_path, shape):
    rng = np.random.default_rng(sum(shape))
    verts = rng.standard_normal((shape[0] * shape[1], 3)) * [1.0, 1e-7, 1e5]
    path = tmp_path / "m.obj"
    write_obj(path, verts, shape)
    assert path.read_bytes() == reference_obj(verts, shape)
    n_faces = sum(1 for line in path.read_text().splitlines() if line.startswith("f "))
    assert n_faces == (shape[0] - 1) * (shape[1] - 1)
