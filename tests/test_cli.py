import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from e6grad import jsonio
from e6grad.cli import main


def test_build_tits(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["build", "tits", "--out", "tits.json"])
    assert rc == 0
    doc = jsonio.load("tits.json")
    assert doc["dim"] == 78
    assert doc["killing_signature"] == -14
    assert doc["provenance"]["component_dims"] == [14, 56, 8]
    table = jsonio.table_from_json(doc["table"])
    assert table.dim == 78


# sha256 of `e6grad build tits` without its generated_at line, as json.dump
# with indent=1 and sort_keys=True wrote it
BUILD_TITS_SHA256 = \
    "f4bca70de40c5aa2dc446b2fc7d605618a533a376c4e77ff87c192af67db7475"


def test_build_tits_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["build", "tits", "--out", "tits.json"]) == 0
    lines = Path("tits.json").read_bytes().splitlines(keepends=True)
    kept = [x for x in lines if not x.startswith(b' "generated_at": ')]
    assert len(kept) == len(lines) - 1
    assert hashlib.sha256(b"".join(kept)).hexdigest() == BUILD_TITS_SHA256


def test_build_albert_epsilon(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["build", "albert", "--epsilon", "-1", "--out", "a.json"])
    assert rc == 0
    doc = jsonio.load("a.json")
    assert doc["killing_signature"] == -14
    assert doc["provenance"]["epsilon"] == -1


def test_build_albert_defaults_to_epsilon_minus_one(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["build", "albert"]) == 0
    assert main(["build", "albert", "--epsilon", "-1", "--out", "a.json"]) == 0
    d1, d2 = jsonio.load("albert_eps-1.json"), jsonio.load("a.json")
    d1.pop("generated_at")
    d2.pop("generated_at")
    assert d1 == d2


@pytest.mark.parametrize("argv, option, model", [
    (["chevalley", "--epsilon", "1"], "--epsilon", "chevalley"),
    (["tits", "--epsilon", "-1"], "--epsilon", "tits"),
    (["flag", "--split-octonions"], "--split-octonions", "flag"),
    (["albert", "--split-octonions"], "--split-octonions", "albert"),
])
def test_build_rejects_an_option_of_another_model(tmp_path, monkeypatch,
                                                  capsys, argv, option,
                                                  model):
    monkeypatch.chdir(tmp_path)
    assert main(["build", *argv]) == 2
    err = capsys.readouterr().err
    assert option in err and model in err
    assert list(tmp_path.iterdir()) == []


def test_build_deterministic(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["build", "tits", "--out", "t1.json"])
    assert rc == 0
    rc = main(["build", "tits", "--out", "t2.json"])
    assert rc == 0
    d1 = jsonio.load("t1.json")
    d2 = jsonio.load("t2.json")
    d1.pop("generated_at")
    d2.pop("generated_at")
    assert d1 == d2


def test_grade_tits_gamma3(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["grade", "tits", "gamma3", "--out", "g3.json"])
    assert rc == 0
    doc = jsonio.load("g3.json")
    assert doc["compatible"] is True
    assert doc["type_vector"] == [64, 7]
    assert doc["universal_group"]["name"] == "Z2 x Z6^2"
    assert doc["interval"]["dim_neutral"] == 0
    assert doc["interval"]["order2_dim"] == 14
    assert len(doc["grading_data"]["components"]) == 71


def test_grade_rejects_mismatched_pair(capsys):
    rc = main(["grade", "tits", "gamma7"])
    assert rc == 2
    assert "albert" in capsys.readouterr().err


def test_grade_rejects_unknown_grading(capsys):
    rc = main(["grade", "tits", "gamma99"])
    assert rc == 2


def test_module_entry_point_exit_status():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-m", "e6grad", "grade", "tits",
                           "nosuch"], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 2
    assert "unknown grading 'nosuch'" in proc.stderr
