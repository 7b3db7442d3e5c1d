import math
import re

import numpy as np
import pytest

from flsim import (
    FlatBottom,
    Scene,
    TriangleMesh,
    build_scene,
    layout_for,
    load_scenario,
    loads,
    serialize,
)
from flsim.raysim import KIND_BOTTOM, _trace_batch
from flsim.scenario import STEP_RAMP_M
from flsim.runner import with_overrides

MINIMAL = """
environment:
  temperature_c: 10.0
  salinity_ppt: 35.0
  max_depth_m: 12.0
sonar:
  frequency_khz: 450.0
  bandwidth_hz: 20000.0
  ping_rate_hz: 18.5
  horizontal_len_m: 0.005
  vertical_len_m: 0.010
  bin_length_m: 0.25
pose:
  altitude_m: 5.0
  depth_m: 7.0
"""


# --- bundled documents -----------------------------------------------------------


def test_bundled_flat_scenario(scenario1):
    assert scenario1.sonar.frequency_khz == 450.0
    assert scenario1.sonar.bandwidth_hz == 20000.0
    assert scenario1.sonar.bin_length_m == 0.25
    assert scenario1.sonar.num_rays == 20000
    assert scenario1.sonar.source_level_db == 0.0
    assert [b.name for b in scenario1.sonar.beams] == ["forward"]
    assert scenario1.env.wind_knots == 10.0
    assert scenario1.env.particle_density_db == -90.0
    assert scenario1.pose.altitude_m == 5.0
    assert scenario1.pose.depth_m == 7.0
    assert scenario1.num_pings == 50
    assert scenario1.noise_enabled is False
    assert scenario1.seed == 101
    assert scenario1.detect_params == {
        "sigma_db": 3.0, "alt_offset_db": 6.0, "gamma": 10.0}
    assert scenario1.compare_params["window_m"] == [0.0, 20.0]
    assert scenario1.compare_params["max_gap_db"] == 3.0
    scene = build_scene(scenario1)
    assert isinstance(scene.bottom, FlatBottom)
    assert scene.bottom.depth_m == 12.0
    assert scene.surface_enabled and scene.volume_enabled
    assert scene.objects == ()


def test_bundled_step_scenario(scenario2):
    names = [b.name for b in scenario2.sonar.beams]
    assert names == ["forward", "down20", "up20"]
    pitches = {b.name: b.pitch_rad for b in scenario2.sonar.beams}
    assert pitches["down20"] == math.radians(20.0)
    assert pitches["up20"] == math.radians(-20.0)
    assert scenario2.num_pings == 20
    assert scenario2.seed == 202
    scene = build_scene(scenario2)
    bottom = scene.bottom
    assert isinstance(bottom, TriangleMesh) and bottom.faces.shape == (6, 3)
    # deep side up to the rise, shallow side beyond it, as far as any ray
    # of a ping reaches: end_m from the sonar at x = y = 0 in x and y
    end_m = layout_for(scenario2.env, scenario2.sonar).end_m
    assert np.all(bottom.vertices.min(axis=0)[:2] < -end_m)
    assert np.all(bottom.vertices.max(axis=0)[:2] > end_m)
    x, y = np.meshgrid(*[np.linspace(-end_m, end_m, 9)] * 2)
    xy = np.array([(0.0, 0.0), (34.0, 0.0), (36.0, 3.0),
                   *zip(x.ravel(), y.ravel())])
    origins = np.column_stack([xy, np.full(len(xy), 1.0)])
    down = np.broadcast_to([0.0, 0.0, 1.0], origins.shape)
    floor = Scene(env=scenario2.env, bottom=bottom, surface_enabled=False)
    kind, t, *_ = _trace_batch(floor, origins, down, 0.0, 20.0)
    assert np.all(kind == KIND_BOTTOM)
    np.testing.assert_allclose(1.0 + t, np.where(xy[:, 0] < 35.0, 12.0, 10.0),
                               rtol=1e-12)


def test_the_step_ramp_spans_distance_to_a_fixed_width():
    """A step is deep up to distance_m and shallow from distance_m +
    STEP_RAMP_M on, for a distance and a rise of either sign, as long as the
    ramp lies within the rays' reach."""
    assert STEP_RAMP_M == 0.5
    minimal = loads(MINIMAL)
    end_m = layout_for(minimal.env, minimal.sonar).end_m
    rng = np.random.default_rng(17)
    for _ in range(200):
        distance = rng.uniform(-end_m, end_m - STEP_RAMP_M)
        rise = rng.uniform(-4.0, 11.0)
        # YAML reads a float exactly from 17 digits with a signed exponent
        bottom = build_scene(loads(MINIMAL + (
            "\nscene:\n  bottom: {type: step, distance_m: %.16e, "
            "rise_m: %.16e}\n" % (distance, rise)))).bottom
        assert isinstance(bottom, TriangleMesh) and bottom.faces.shape == (6, 3)
        x_a, x_b = np.unique(bottom.vertices[:, 0])[1:3]
        assert (x_a, x_b) == (distance, distance + STEP_RAMP_M)
        deep = bottom.vertices[:, 0] <= x_a
        assert np.all(bottom.vertices[deep, 2] == 12.0)
        assert np.all(bottom.vertices[~deep, 2] == 12.0 - rise)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("distance, depth", [(1e200, 12.0), (1e6, 12.0),
                                             (-1e6, 10.0), (-1e300, 10.0)])
def test_a_step_out_of_reach_is_a_plane_to_every_ray(distance, depth):
    """A ramp beyond the rays' reach sits at the reach's edge: every ray
    meets the plateau under it, as on a plane, and no vertex is so large
    that the mesh kernel overflows."""
    sc = loads(MINIMAL + "\nscene:\n  bottom: {type: step, distance_m: %.16e, "
               "rise_m: 2.0}\n" % distance)
    bottom = build_scene(sc).bottom
    end_m = layout_for(sc.env, sc.sonar).end_m
    assert np.abs(bottom.vertices[:, 0]).max() < 3.0 * end_m
    dirs = -np.random.default_rng(3).standard_normal((2000, 3))
    dirs[:, 2] = np.abs(dirs[:, 2]) + 0.3
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    origin = np.array([[0.0, 0.0, 7.0]])
    floor = Scene(env=sc.env, bottom=bottom, surface_enabled=False)
    plane = Scene(env=sc.env, bottom=FlatBottom(depth), surface_enabled=False)
    kind, t, *_ = _trace_batch(floor, origin, dirs, 0.0, end_m)
    kind_p, t_p, *_ = _trace_batch(plane, origin, dirs, 0.0, end_m)
    assert np.count_nonzero(kind == KIND_BOTTOM) > 1000
    np.testing.assert_array_equal(kind, kind_p)
    np.testing.assert_allclose(t, t_p, rtol=1e-12, atol=0.0)


# --- parsing and validation --------------------------------------------------------


def test_minimal_document_fills_defaults():
    sc = loads(MINIMAL)
    assert sc.num_pings == 1
    assert sc.noise_enabled is True
    assert sc.seed == 0
    assert sc.sonar.num_rays == 20000
    assert sc.env.bottom_type == 2.0
    assert sc.transmitter.pitch_rad == 0.0
    assert sc.detect_params["gamma"] == 10.0
    assert sc.compare_params["min_expected_db"] == -120.0
    assert [b.name for b in sc.sonar.beams] == ["forward"]


def test_unknown_keys_are_rejected_with_their_path():
    with pytest.raises(ValueError, match="scenario.sonar"):
        loads(MINIMAL.replace("bin_length_m: 0.25",
                              "bin_length_m: 0.25\n  chirp: true"))
    with pytest.raises(ValueError, match="scenario.environment"):
        loads(MINIMAL.replace("salinity_ppt", "salinity"))
    with pytest.raises(ValueError, match="scenario: unknown key"):
        loads(MINIMAL + "\nextras: {}\n")
    with pytest.raises(ValueError, match="scenario.run: unknown key 1"):
        loads(MINIMAL + "\nrun: {1: a, zz: b}\n")
    # each quantity is stated once: the step has no grid to space or
    # extend, and the sonar's depth is the pose's
    step = MINIMAL + ("\nscene:\n  bottom: {type: step, distance_m: 10.0, "
                      "rise_m: 2.0, %s}\n")
    for key in ("spacing_m", "extent_m"):
        with pytest.raises(ValueError, match=re.escape(
                f"scenario.scene.bottom: unknown key '{key}'")):
            loads(step % f"{key}: 0.5")
    with pytest.raises(ValueError, match=re.escape(
            "scenario.environment: unknown key 'depth_m'")):
        loads(MINIMAL.replace("  max_depth_m:", "  depth_m: 7.0\n  max_depth_m:"))


def test_sound_speed_is_taken_at_the_pose_depth():
    """The environment takes the pose's depth. Sound speed holds from 0 to
    1000 m, and an error about a deeper pose names the pose's key."""
    sc = loads(MINIMAL.replace("  depth_m: 7.0", "  depth_m: 8.5"))
    assert sc.env.depth_m == sc.pose.depth_m == 8.5
    with pytest.raises(ValueError, match=re.escape(
            "scenario.pose.depth_m: must be in [0.0, 1000.0], got 1500.0")):
        loads(MINIMAL.replace("  depth_m: 7.0", "  depth_m: 1500.0"))
    assert loads(MINIMAL.replace("  depth_m: 7.0", "  depth_m: 1000.0")
                 ).env.sound_speed() > 0.0


def test_missing_required_section_is_rejected():
    trimmed = MINIMAL.split("pose:")[0]
    with pytest.raises(ValueError, match="pose"):
        loads(trimmed)


def test_invalid_yaml_is_a_value_error():
    with pytest.raises(ValueError, match="invalid YAML"):
        loads("sonar: [unclosed")


def test_bad_bottom_type_is_rejected():
    doc = MINIMAL + "\nscene:\n  bottom:\n    type: ramp\n"
    with pytest.raises(ValueError, match="scenario.scene.bottom.type"):
        loads(doc)


def test_step_bottom_requires_its_parameters():
    doc = MINIMAL + "\nscene:\n  bottom:\n    type: step\n"
    with pytest.raises(ValueError, match="distance_m"):
        loads(doc)


def test_nonpositive_ping_count_is_rejected():
    doc = MINIMAL + "\nrun:\n  num_pings: 0\n"
    with pytest.raises(ValueError, match="num_pings"):
        loads(doc)


def test_duplicate_beam_names_are_rejected():
    doc = MINIMAL.replace(
        "bin_length_m: 0.25",
        "bin_length_m: 0.25\n  beams:\n"
        "    - {name: a}\n    - {name: a}")
    with pytest.raises(ValueError, match="unique"):
        loads(doc)


def test_beam_names_writing_the_same_files_are_rejected():
    # Both names become the file stem up_20, so one beam's CSVs would
    # overwrite the other's.
    doc = MINIMAL.replace(
        "bin_length_m: 0.25",
        "bin_length_m: 0.25\n  beams:\n"
        "    - {name: up-20}\n    - {name: 'up 20'}")
    with pytest.raises(ValueError) as exc:
        loads(doc)
    assert str(exc.value) == ("scenario.sonar.beams: beams 'up-20' and 'up 20' "
                              "write the same files (up_20)")


def test_mesh_object_face_shape_is_checked():
    doc = MINIMAL + (
        "\nscene:\n  objects:\n"
        "    - type: mesh\n"
        "      vertices: [[0, 0, 6], [1, 0, 6], [0, 1, 6]]\n"
        "      faces: [[0, 1]]\n"
    )
    with pytest.raises(ValueError, match="faces"):
        loads(doc)


def test_numbers_must_be_finite():
    for bad in (".nan", ".inf", "-.inf"):
        with pytest.raises(ValueError,
                           match="scenario.sonar.source_level_db: expected a finite"):
            loads(MINIMAL.replace("bin_length_m: 0.25",
                                  f"bin_length_m: 0.25\n  source_level_db: {bad}"))
    with pytest.raises(ValueError, match="scenario.detect.gamma: expected a finite"):
        loads(MINIMAL + "\ndetect: {gamma: .nan}\n")


def test_source_level_must_have_a_finite_linear_intensity():
    doc = MINIMAL.replace("  bandwidth_hz: 20000.0\n",
                          "  bandwidth_hz: 20000.0\n  source_level_db: 4000.0\n")
    with pytest.raises(ValueError, match=re.escape(
            "scenario.sonar: source_level_db must have a finite linear intensity")):
        loads(doc)
    assert loads(doc.replace("4000.0", "400.0")).sonar.source_level_db == 400.0


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError, match=r"scenario.run.seed: must be >= 0, got -1"):
        loads(MINIMAL + "\nrun:\n  seed: -1\n")


def test_bin_layout_is_checked_at_load():
    with pytest.raises(ValueError, match="scenario.sonar: max_range_m"):
        loads(MINIMAL.replace("bin_length_m: 0.25", "bin_length_m: 1000.0"))


def test_beam_angles_are_read_as_degrees():
    doc = MINIMAL.replace(
        "bin_length_m: 0.25",
        "bin_length_m: 0.25\n  beams:\n"
        "    - {name: tilted, pitch_deg: 20.0, yaw_deg: -5.0}")
    sc = loads(doc)
    beam = sc.sonar.beams[0]
    assert beam.pitch_rad == math.radians(20.0)
    assert beam.yaw_rad == math.radians(-5.0)


# --- scene assembly -------------------------------------------------------------------


def test_scene_none_bottom_and_objects():
    doc = MINIMAL + (
        "\nscene:\n"
        "  bottom: {type: none}\n"
        "  surface: false\n"
        "  objects:\n"
        "    - {type: box, center_m: [10, 0, 6], size_m: [2, 2, 2]}\n"
        "    - type: mesh\n"
        "      vertices: [[0, 0, 6], [1, 0, 6], [0, 1, 6]]\n"
        "      faces: [[0, 1, 2]]\n"
        "      rms_roughness: 2.5\n"
    )
    scene = build_scene(loads(doc))
    assert scene.bottom is None
    assert scene.surface_enabled is False
    assert isinstance(scene.objects[0], TriangleMesh)
    assert scene.objects[0].faces.shape == (12, 3)
    assert isinstance(scene.objects[1], TriangleMesh)
    assert scene.objects[1].material.rms_roughness == 2.5


def test_step_rise_reaching_surface_is_rejected():
    doc = MINIMAL + (
        "\nscene:\n  bottom:\n"
        "    type: step\n    distance_m: 10.0\n    rise_m: 12.0\n"
    )
    with pytest.raises(ValueError, match="rise_m"):
        build_scene(loads(doc))


def test_scene_errors_are_raised_at_load_with_their_path():
    doc = MINIMAL + (
        "\nscene:\n  objects:\n"
        "    - {type: box, center_m: [10, 0, 6], size_m: [2, 2, 2],"
        " rms_roughness: 9}\n"
    )
    with pytest.raises(ValueError, match=re.escape(
            "scenario.scene.objects[0]: rms_roughness must be in [1, 4], got 9.0")):
        loads(doc)
    with pytest.raises(ValueError, match=re.escape("scenario.scene.objects[0]: size_m")):
        loads(doc.replace("size_m: [2, 2, 2]", "size_m: [2, 0, 2]")
              .replace("rms_roughness: 9", "rms_roughness: 2"))
    mesh = MINIMAL + (
        "\nscene:\n  objects:\n"
        "    - type: mesh\n"
        "      vertices: [[0, 0, 6], [1, 0, 6], [0, 1, 6]]\n"
        f"      faces: [[0, 1, {2**70}]]\n"
    )
    with pytest.raises(ValueError, match=re.escape(
            "scenario.scene.objects[0]: faces index outside the vertex array")):
        loads(mesh)


def test_a_box_enclosing_the_sonar_is_rejected_at_load():
    """A sonar inside a solid obstacle, or on its boundary, is outside the
    model."""
    doc = MINIMAL + (
        "\nscene:\n  objects:\n"
        "    - {type: box, center_m: [30, 0, 6], size_m: [2, 2, 2]}\n"
        "    - {type: box, center_m: [0, 0, 7], size_m: [2, 2, 2]}\n"
    )
    message = "scenario.scene.objects[1]: box encloses the sonar at (0, 0, 7.0)"
    with pytest.raises(ValueError, match=re.escape(message)):
        loads(doc)
    # the closed extent: a sonar on a face counts as enclosed
    with pytest.raises(ValueError, match=re.escape(message)):
        loads(doc.replace("center_m: [0, 0, 7]", "center_m: [1, 0, 7]"))
    loads(doc.replace("center_m: [0, 0, 7]", "center_m: [1.5, 0, 7]"))


# --- round trips and overrides ----------------------------------------------------


def test_serialize_round_trip(scenario1, scenario2):
    for sc in (scenario1, scenario2):
        again = loads(serialize(sc))
        assert again == sc
    assert scenario1 != scenario2


def test_load_scenario_unknown_name_lists_options(tmp_path):
    with pytest.raises(ValueError, match="scenario1"):
        load_scenario("scenario99")
    path = tmp_path / "copy.yaml"
    path.write_text(MINIMAL, encoding="utf-8")
    assert load_scenario(str(path)) == loads(MINIMAL)


def test_with_overrides_leaves_the_original_alone(scenario1):
    changed = with_overrides(scenario1, seed=1, rays=100, pings=2,
                             gamma=5.0, no_noise=True)
    assert changed.seed == 1
    assert changed.sonar.num_rays == 100
    assert changed.num_pings == 2
    assert changed.detect_params["gamma"] == 5.0
    assert changed.noise_enabled is False
    assert scenario1.seed == 101
    assert scenario1.sonar.num_rays == 20000
    assert scenario1.num_pings == 50
    assert scenario1.detect_params["gamma"] == 10.0
    assert with_overrides(scenario1) == scenario1
