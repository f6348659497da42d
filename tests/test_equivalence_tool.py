"""``tools/equivalence.py diff`` on tiny run directories: identical trees
pass, and a changed CSV cell, a missing file or a JSON key on one side only
is reported and fails."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "equivalence.py"


@pytest.fixture(scope="module")
def equivalence():
    spec = importlib.util.spec_from_file_location("equivalence", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def trees(tmp_path):
    a = tmp_path / "a"
    (a / "scores").mkdir(parents=True)
    (a / "scores" / "fd_scores.csv").write_text("row_id,split,alpha1\n0,train,1.5\n1,test,-2\n")
    (a / "summary.json").write_text(json.dumps({"map": {"f_n": 0.03}, "seed": 7}) + "\n")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    return a, b


def test_identical_trees_pass(equivalence, trees, capsys):
    assert equivalence.main(["diff", *map(str, trees)]) == 0
    assert capsys.readouterr().out.strip() == "identical: 2 files"


def test_changed_csv_cell_reports_column(equivalence, trees, capsys):
    a, b = trees
    (b / "scores" / "fd_scores.csv").write_text("row_id,split,alpha1\n0,train,1.5\n1,test,-2.5\n")
    assert equivalence.main(["diff", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        f"differs: {Path('scores', 'fd_scores.csv')}",
        "  column alpha1: max relative difference 0.2",
    ]


def test_missing_file_reported(equivalence, trees, capsys):
    a, b = trees
    (b / "summary.json").unlink()
    assert equivalence.main(["diff", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == ["only in A: summary.json"]


def test_one_sided_json_key_reported_once_at_its_shallowest_path(equivalence, trees, capsys):
    a, b = trees
    (b / "summary.json").write_text(
        json.dumps({"map": {}, "seed": 7, "stages": [{"gamma": 0.5}, {"gamma": 1.0}]}) + "\n"
    )
    assert equivalence.main(["diff", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: summary.json",
        "  map.f_n: only in A",
        "  stages: only in B",
    ]
