"""Command-line contract: exit codes, JSON output, serialization."""

import json
import time

import pytest

from fhalg.cli import main
from fhalg.io import hopf_from_json, hopf_to_json, load_spec, save_spec
from conftest import preset


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- exit codes --------------------------------------------------------

def test_verify_passes_on_preset(capsys):
    code, out, _ = run(capsys, "verify", "preset:sweedler4")
    assert code == 0
    assert "result: pass" in out


def test_human_output_shows_the_detail_of_passing_checks(capsys):
    code, out, _ = run(capsys, "check", "preset:sweedler4")
    assert code == 0
    assert "[ok] symmetry criteria agree: symmetric=False" in out.splitlines()


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run(capsys, "report", "/no/such/file.json")
    assert code == 2
    assert "error:" in err


def test_unknown_preset_is_an_input_error(capsys):
    code, _, err = run(capsys, "verify", "preset:group:E8")
    assert code == 2


def test_malformed_json_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert "invalid JSON" in err


def test_out_of_range_index_is_an_input_error(tmp_path, capsys):
    obj = hopf_to_json(preset("group:C2"))
    obj["mul"].append([0, 0, 2, "1"])
    path = tmp_path / "oor.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "out of range" in err


def test_duplicate_and_zero_entries_load_to_the_stored_form():
    H = preset("sweedler4")
    obj = hopf_to_json(H)
    canonical = [list(e) for e in obj["mul"]]
    i, j, k, _ = obj["mul"][0]
    assert obj["mul"][0][3] == "1"
    obj["mul"][0][3] = "1/2"
    obj["mul"].append([i, j, k, "1/2"])
    obj["mul"].append([1, 1, 3, "0"])      # x * x = 0 in H4
    H2 = hopf_from_json(obj)
    assert H2.mul == H.mul
    assert H2.mul[i][j] == [(k, H.field.one)]
    assert H2.mul[1][1] == []
    assert hopf_to_json(H2)["mul"] == canonical


def _assert_refused_quickly(capsys, *argv):
    t0 = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert "MAX_DIM = 256" in err


def test_spec_above_max_dim_is_refused_before_allocation(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"field": {"kind": "Q"}, "dim": 2000,
                                "unit": ["1"], "mul": []}))
    _assert_refused_quickly(capsys, "verify", str(path))


@pytest.mark.parametrize("name", ["group:C257", "truncpoly:257",
                                  "taft:17:103", "dual-group:C1000"])
def test_preset_above_max_dim_is_refused(capsys, name):
    _assert_refused_quickly(capsys, "check", f"preset:{name}")


def test_double_above_max_dim_is_refused(capsys):
    _assert_refused_quickly(capsys, "double", "preset:group:C17")


def test_numeric_scalar_is_an_input_error(tmp_path, capsys):
    obj = hopf_to_json(preset("group:C2"))
    obj["unit"] = [1, 0]
    path = tmp_path / "num.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "string" in err


def test_broken_axiom_falsifies_verify(tmp_path, capsys):
    obj = hopf_to_json(preset("group:C2"))
    obj["mul"] = [e for e in obj["mul"] if e[:3] != [1, 1, 0]] \
        + [[1, 1, 1, "1"]]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "FAIL" in out


def test_broken_axiom_rejected_by_other_commands(tmp_path, capsys):
    obj = hopf_to_json(preset("group:C2"))
    obj["mul"] = [e for e in obj["mul"] if e[:3] != [1, 1, 0]] \
        + [[1, 1, 1, "1"]]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "report", str(path))
    assert code == 2


# -- reports -----------------------------------------------------------

def test_report_fields_for_hopf_preset(capsys):
    code, out, _ = run(capsys, "report", "preset:sweedler4")
    assert code == 0
    assert "distinguished group-like b: g" in out
    assert "unimodular: false" in out
    assert "ord(S): 4" in out


def test_report_fields_for_augmented_preset(capsys):
    code, out, _ = run(capsys, "report", "preset:truncpoly:4")
    assert code == 0
    assert "symmetric: true" in out
    assert "unimodular: true" in out
    assert "norm: X^3" in out


def test_check_command_full_suite(capsys):
    code, out, _ = run(capsys, "check", "preset:taft:3:13")
    assert code == 0
    assert "result: pass" in out


def test_json_output_round_trips(capsys):
    code, out, _ = run(capsys, "--json", "report", "preset:sweedler4")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert obj["command"] == "report"
    # the JSON carries exactly the human-report fields
    code2, human, _ = run(capsys, "report", "preset:sweedler4")
    for key, value in obj["fields"].items():
        assert f"{key}: {value}" in human
    for check in obj["checks"]:
        assert isinstance(check["passed"], bool)


def test_json_flag_position_is_flexible(capsys):
    code1, out1, _ = run(capsys, "--json", "verify", "preset:group:C3")
    code2, out2, _ = run(capsys, "verify", "preset:group:C3", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_parallel_output_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "check", "preset:group:S3")
    code2, out2, _ = run(capsys, "check", "preset:group:S3", "--parallel")
    assert code1 == code2 == 0
    assert out1 == out2


# -- serialization -----------------------------------------------------

def test_spec_serialization_round_trips_bit_exact(tmp_path):
    H = preset("taft:3:13")
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_spec(H, str(p1))
    H2 = load_spec(str(p1))
    save_spec(H2, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert H2.mul == H.mul and H2.comul == H.comul
    assert H2.antipode == H.antipode


def test_preset_out_refeeds(tmp_path, capsys):
    out_file = tmp_path / "q8.json"
    code, _, _ = run(capsys, "preset", "group:Q8", "--out", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "check", str(out_file))
    assert code == 0
    assert "result: pass" in out


def test_preset_prints_json_spec(capsys):
    code, out, _ = run(capsys, "preset", "group:C2")
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 2
    assert all(isinstance(e[3], str) for e in obj["mul"])


def test_double_command_writes_loadable_spec(tmp_path, capsys):
    out_file = tmp_path / "dc2.json"
    code, out, _ = run(capsys, "double", "preset:group:C2",
                       "--out", str(out_file))
    assert code == 0
    assert "double dim: 4" in out
    assert "quasitriangular: true" in out
    code, out, _ = run(capsys, "check", str(out_file))
    assert code == 0


def test_subpair_command(tmp_path, capsys):
    emb = tmp_path / "emb.json"
    emb.write_text(json.dumps(
        {"rows": [["1", "0", "0", "0"], ["0", "0", "1", "0"]]}))
    code, out, _ = run(capsys, "subpair", "preset:sweedler4",
                       "preset:group:C2", "--embedding", str(emb))
    assert code == 0
    assert "beta trivial: false" in out
    assert "result: pass" in out


def test_subpair_rejects_bad_embedding(tmp_path, capsys):
    emb = tmp_path / "emb.json"
    # image of g is not a group-like of H4
    emb.write_text(json.dumps(
        {"rows": [["1", "0", "0", "0"], ["0", "1", "0", "0"]]}))
    code, _, err = run(capsys, "subpair", "preset:sweedler4",
                       "preset:group:C2", "--embedding", str(emb))
    assert code == 1
    assert "falsified:" in err
