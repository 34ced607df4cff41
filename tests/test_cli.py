import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from e6grad import jsonio, verify
from e6grad.cli import main
from test_verify_extra import RUN_ALL_FULL_SHA256


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
    rc = main(["grade", "gamma3", "--out", "g3.json"])
    assert rc == 0
    doc = jsonio.load("g3.json")
    assert doc["compatible"] is True
    assert doc["type_vector"] == [64, 7]
    assert doc["universal_group"]["name"] == "Z2 x Z6^2"
    assert doc["interval"]["dim_neutral"] == 0
    assert doc["interval"]["order2_dim"] == 14
    assert len(doc["grading_data"]["components"]) == 71


def test_grade_names_its_file_after_the_grading_model(tmp_path, monkeypatch,
                                                      capsys, ws):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(verify, "Workspace", lambda: ws)
    assert main(["grade", "gamma8"]) == 0
    assert capsys.readouterr().out == (
        "gamma8 on albert: type (57, 0, 7), group Z x Z2^4, interval 1 +- "
        "29; -> albert_gamma8.json\n")
    assert jsonio.load("albert_gamma8.json")["model"] == "albert"


def test_grade_rejects_unknown_grading(capsys):
    rc = main(["grade", "gamma99"])
    assert rc == 2


def test_module_entry_point_exit_status():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-m", "e6grad", "grade", "nosuch"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 2
    assert "unknown grading 'nosuch'" in proc.stderr


def _report_sha256(text):
    doc = json.loads(text)
    doc.pop("generated_at")
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_verify_all_json_is_the_pinned_report(tmp_path, monkeypatch, capsys,
                                              ws):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(verify, "Workspace", lambda: ws)
    assert main(["verify-all", "--json", "--out", "report.json"]) == 1
    assert _report_sha256(capsys.readouterr().out) == RUN_ALL_FULL_SHA256
    assert _report_sha256(Path("report.json").read_text()) == \
        RUN_ALL_FULL_SHA256


def test_verify_all_text_names_the_three_red_checks(monkeypatch, capsys, ws):
    monkeypatch.setattr(verify, "Workspace", lambda: ws)
    assert main(["verify-all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    red = [x for x in lines if x.startswith("    [FAIL] ")]
    assert len(red) == 3
    for line, name in zip(red, [
            "Tits: kappa(a x, b y) = -60 n(a,b) tr(x.y)",
            "corollary: complete antisymmetry of f^{ijk} on nonzero triples",
            "sp8: fixed dims {24,16} and signatures {-12,4}"]):
        assert line.startswith(f"    [FAIL] {name}")
    assert lines[-1] == "some checks failed"


@pytest.mark.parametrize("argv", [["verify-all", "--include-sp8"],
                                  ["grade", "tits", "gamma3"]])
def test_removed_options_exit_through_argparse(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


COMMANDS = [["build", "tits"], ["grade", "gamma3"], ["verify-all", "--json"]]


@pytest.mark.parametrize("argv", COMMANDS)
def test_an_out_path_in_a_missing_directory_exits_before_any_work(
        tmp_path, monkeypatch, capsys, argv):
    def no_work():
        raise AssertionError("the command started its work")

    monkeypatch.setattr(verify, "Workspace", no_work)
    out = tmp_path / "missing" / "out.json"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: cannot write {out}: no directory {out.parent}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", COMMANDS)
def test_a_failed_write_exits_2_with_the_reason(tmp_path, monkeypatch, capsys,
                                               ws, argv):
    # the output path is a directory, so opening it for writing fails
    monkeypatch.setattr(verify, "Workspace", lambda: ws)
    assert main([*argv, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {tmp_path}: Is a directory\n"
