"""The artifact text format round-trips every double and keeps the bytes
of the score tables."""

import numpy as np

from gtncal.formats import read_csv, write_csv
from gtncal.pipeline.dataset import _write_scores, read_scores

EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.1, 1.0 / 3.0]


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def test_float_table_round_trips_bit_for_bit(tmp_path):
    rng = np.random.default_rng(0)
    random = rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-300, 300, (50, 4))
    data = np.vstack([random, np.reshape(EDGE_VALUES * 2, (-1, 4))])
    path = tmp_path / "t.csv"
    write_csv(path, data, header="a,b,c,d")
    np.testing.assert_array_equal(_bits(read_csv(path, skip_header=True)), _bits(data))
    write_csv(path, data)
    np.testing.assert_array_equal(_bits(read_csv(path)), _bits(data))


def _parent_scores_text(rows, split, scores, names):
    """The score table as a hand-rolled writer spelled it before the format
    had one home: the reference the object-row path must reproduce."""
    lines = ["row_id,split," + ",".join(names)]
    for row, vec in zip(rows, scores):
        vals = ",".join(format(float(v), ".17g") for v in vec)
        lines.append(f"{row},{split[row]},{vals}")
    return "\n".join(lines) + "\n"


def test_object_rows_keep_the_score_table_bytes(tmp_path):
    rng = np.random.default_rng(1)
    rows = [0, 3, 7, 12]
    split = {0: "train", 3: "test", 7: "train", 12: "train"}
    scores = rng.standard_normal((4, 3))
    scores[0] = [-0.0, 5e-324, 1e308]
    names = ["alpha1", "alpha2", "d_f"]
    path = tmp_path / "scores.csv"
    _write_scores(path, rows, split, scores, names)
    assert path.read_text() == _parent_scores_text(rows, split, scores, names)
    row_ids, splits, back, header = read_scores(path)
    assert row_ids.tolist() == rows
    assert splits == [split[r] for r in rows]
    assert header == names
    np.testing.assert_array_equal(_bits(back), _bits(scores))

