import json
import filecmp
import os

import numpy as np
import pytest
import yaml

from flsim import (
    BeamOrientation,
    BinLayout,
    NO_RESPONSE,
    NullModelReturn,
    SonarPose,
    to_linear,
)
from flsim.cli import main
from flsim.nullmodel import QuadratureError
from flsim.runner import (
    _ping_rng,
    compare_beam,
    run_detect,
    run_null,
    run_sim,
    with_overrides,
)
from flsim.scenario import serialize


def _read_rows(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read().splitlines()


# --- runner ---------------------------------------------------------------------


def test_ping_rng_streams_are_keyed_and_stable():
    a = _ping_rng(101, 0, 3).standard_normal(4)
    b = _ping_rng(101, 0, 3).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    c = _ping_rng(101, 1, 3).standard_normal(4)
    d = _ping_rng(101, 0, 4).standard_normal(4)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_run_null_writes_a_curve_per_beam(scenario1, tmp_path):
    out = tmp_path / "null"
    nulls = run_null(scenario1, str(out))
    assert set(nulls) == {"forward"}
    rows = _read_rows(out / "null_forward.csv")
    assert rows[0] == "bin,d_center_m,total_db,bottom_db,surface_db,volume_db"
    assert len(rows) == 1 + 161
    # early dry bins have volume only; the totals column mirrors that
    first = rows[1].split(",")
    assert first[0] == "1"
    assert first[3] == "null"
    assert first[5] != "null"
    meta = json.loads((out / "null_meta.json").read_text())
    assert meta["command"] == "null"
    assert meta["resolved"]["num_bins"] == 161
    assert "timestamp" not in json.dumps(meta).lower()


def test_run_sim_is_reproducible_byte_for_byte(scenario1, tmp_path):
    short = with_overrides(scenario1, rays=2000, pings=2)
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_sim(short, str(a))
    run_sim(short, str(b))
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    assert "sim_forward_ping1.csv" in names
    assert "sim_forward_ping2.csv" in names
    assert "sim_forward_mean.csv" in names
    for name in names:
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_run_detect_writes_decisions_and_summary(scenario1, tmp_path):
    short = with_overrides(scenario1, rays=2000, pings=2)
    out = tmp_path / "detect"
    detections = run_detect(short, str(out))
    assert set(detections) == {"forward"}
    assert len(detections["forward"]) == 2
    rows = _read_rows(out / "detect_summary.csv")
    assert rows[0] == "beam,ping,gamma,pd,pfa,num_detections"
    assert len(rows) == 1 + 2
    ping_rows = _read_rows(out / "detect_forward_ping1.csv")
    assert len(ping_rows) == 1 + 161
    # volume keeps every bin of this scenario testable
    assert all(r.split(",")[-1] in ("0", "1") for r in ping_rows[1:])


def test_run_detect_marks_untestable_bins(scenario1, tmp_path):
    """Without surface and volume the expectation is empty short of the
    first bottom ring, and those bins carry no decision."""
    from flsim.scenario import loads, serialize
    text = serialize(scenario1)
    text = text.replace("surface: true", "surface: false")
    text = text.replace("volume: true", "volume: false")
    bottom_only = with_overrides(loads(text), rays=500, pings=1)
    out = tmp_path / "detect"
    run_detect(bottom_only, str(out))
    ping_rows = _read_rows(out / "detect_forward_ping1.csv")
    assert ping_rows[1].endswith("excluded")
    assert ping_rows[20].endswith("excluded")
    assert ping_rows[21].split(",")[-1] in ("0", "1")


def test_compare_beam_gap_logic():
    layout = BinLayout(bin_length_m=1.0, num_bins=4)
    null = NullModelReturn(
        layout=layout,
        pose=SonarPose(altitude_m=5.0, depth_m=7.0),
        beam=BeamOrientation(),
        bottom_db=np.array([-100.0, -95.0, NO_RESPONSE, -90.0]),
        surface_db=np.full(4, NO_RESPONSE),
        volume_db=np.full(4, NO_RESPONSE),
    )
    mean = to_linear(np.array([-100.5, -98.4, -100.0, -89.0]))
    gaps, eligible, passed = compare_beam(
        null, mean, window_m=[0.0, 4.0], max_gap_db=3.0,
        min_expected_db=-120.0)
    np.testing.assert_allclose(gaps[[0, 1, 3]], [-0.5, -3.4, 1.0], atol=1e-9)
    assert np.isnan(gaps[2])
    assert eligible.tolist() == [True, True, False, True]
    assert passed is False
    _, _, relaxed = compare_beam(
        null, mean, window_m=[0.0, 4.0], max_gap_db=3.5,
        min_expected_db=-120.0)
    assert relaxed is True
    # a window with no eligible bins passes vacuously
    _, none_eligible, vacuous = compare_beam(
        null, mean, window_m=[2.0, 2.8], max_gap_db=0.001,
        min_expected_db=-120.0)
    assert not np.any(none_eligible)
    assert vacuous is True


# --- command line -----------------------------------------------------------------


def test_cli_null_and_sim_succeed(tmp_path):
    out_null = tmp_path / "null"
    assert main(["null", "--scenario", "scenario1",
                 "--out", str(out_null)]) == 0
    assert (out_null / "null_forward.csv").exists()
    out_sim = tmp_path / "sim"
    assert main(["sim", "--scenario", "scenario1", "--out", str(out_sim),
                 "--rays", "2000", "--pings", "1", "--seed", "5"]) == 0
    assert (out_sim / "sim_forward_ping1.csv").exists()
    meta = json.loads((out_sim / "sim_meta.json").read_text())
    assert meta["scenario"]["run"]["seed"] == 5
    assert meta["scenario"]["sonar"]["num_rays"] == 2000


def test_cli_compare_pass_and_fail(tmp_path, scenario1):
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", "scenario1", "--out", str(out),
                 "--pings", "4"]) == 0
    assert (out / "compare_forward.csv").exists()

    from flsim.scenario import serialize
    strict = serialize(scenario1).replace("max_gap_db: 3.0",
                                          "max_gap_db: 0.001")
    assert "0.001" in strict
    path = tmp_path / "strict.yaml"
    path.write_text(strict, encoding="utf-8")
    code = main(["compare", "--scenario", str(path), "--out",
                 str(tmp_path / "strict_out"), "--rays", "2000",
                 "--pings", "1"])
    assert code == 2


def test_cli_detect_succeeds(tmp_path):
    out = tmp_path / "det"
    assert main(["detect", "--scenario", "scenario1", "--out", str(out),
                 "--rays", "2000", "--pings", "1"]) == 0
    assert (out / "detect_summary.csv").exists()


def test_cli_rejects_bad_inputs(tmp_path, capsys):
    assert main(["null", "--scenario", "scenario99",
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "scenario99" in err
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["null", "--out", str(tmp_path)])
    assert exc.value.code == 1


def test_cli_scenario_names_a_file_or_a_bundled_scenario(tmp_path, monkeypatch,
                                                        capsys):
    # a directory is not a scenario file, even when it has a bundled name
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenario1").mkdir()
    (tmp_path / "elsewhere").mkdir()
    assert main(["null", "--scenario", "scenario1", "--out", "out"]) == 0
    assert (tmp_path / "out" / "null_forward.csv").exists()
    capsys.readouterr()
    assert main(["null", "--scenario", "elsewhere", "--out", "out2"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "neither a file nor one of the bundled scenarios" in err


def test_cli_reports_an_unusable_out_directory_in_one_line(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    for out in (taken, taken / "x"):
        assert main(["null", "--scenario", "scenario1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(taken) in err


def test_cli_reports_quadrature_diagnostics(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise QuadratureError("did not converge")

    monkeypatch.setattr("flsim.runner.expected_null", explode)
    assert main(["null", "--scenario", "scenario1",
                 "--out", str(tmp_path / "q")]) == 3


def _document_with_scene(tmp_path, scenario1, scene):
    doc = yaml.safe_load(serialize(scenario1))
    doc["scene"].update(scene)
    path = tmp_path / "doc.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    return str(path)


def test_cli_rejects_scene_errors_at_load(tmp_path, capsys, scenario1):
    rough = _document_with_scene(tmp_path, scenario1, {"objects": [
        {"type": "box", "center_m": [15, 0, 10], "size_m": [2, 2, 2],
         "rms_roughness": 9}]})
    assert main(["null", "--scenario", rough, "--out", str(tmp_path / "n")]) == 1
    err = capsys.readouterr().err
    assert "scenario.scene.objects[0]: rms_roughness" in err
    assert not (tmp_path / "n").exists()

    step = _document_with_scene(tmp_path, scenario1, {"bottom": {
        "type": "step", "distance_m": 35.0, "rise_m": 12.0}})
    assert main(["sim", "--scenario", step, "--out", str(tmp_path / "s"),
                 "--rays", "200", "--pings", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: scenario.scene.bottom: rise_m 12.0 reaches "
                          "the surface")
    assert "Traceback" not in err


def test_cli_rejects_beams_writing_the_same_files(tmp_path, capsys, scenario1):
    doc = yaml.safe_load(serialize(scenario1))
    doc["sonar"]["beams"] = [{"name": "up-20", "pitch_deg": -20.0},
                             {"name": "up 20", "pitch_deg": -20.0}]
    path = tmp_path / "doc.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    assert main(["sim", "--scenario", str(path), "--out", str(tmp_path / "s"),
                 "--rays", "200", "--pings", "1"]) == 1
    err = capsys.readouterr().err
    assert err == ("error: scenario.sonar.beams: beams 'up-20' and 'up 20' "
                   "write the same files (up_20)\n")
    assert not (tmp_path / "s").exists()


def test_cli_rejects_a_box_enclosing_the_sonar(tmp_path, capsys, scenario1):
    path = _document_with_scene(tmp_path, scenario1, {"objects": [
        {"type": "box", "center_m": [0, 0, 7], "size_m": [2, 2, 2]}]})
    assert main(["null", "--scenario", path, "--out", str(tmp_path / "n")]) == 1
    err = capsys.readouterr().err
    assert err == ("error: scenario.scene.objects[0]: box encloses the sonar "
                   "at (0, 0, 7.0)\n")
    assert not (tmp_path / "n").exists()


def test_cli_rejects_an_overflowing_source_level_at_load(tmp_path, capsys,
                                                         scenario1):
    doc = yaml.safe_load(serialize(scenario1))
    doc["sonar"]["source_level_db"] = 4000.0
    path = tmp_path / "loud.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    assert main(["sim", "--scenario", str(path), "--out", str(tmp_path / "s"),
                 "--rays", "200", "--pings", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: scenario.sonar: source_level_db")
    assert "Traceback" not in err
    assert not (tmp_path / "s").exists()

    doc["sonar"]["source_level_db"] = 400.0
    path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    assert main(["sim", "--scenario", str(path), "--out", str(tmp_path / "s"),
                 "--rays", "200", "--pings", "1"]) == 0
