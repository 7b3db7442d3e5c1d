import math
from dataclasses import replace

import numpy as np
import pytest

from flsim import (
    BeamOrientation,
    Box,
    FlatBottom,
    Heightfield,
    NO_RESPONSE,
    Ray,
    Scene,
    SonarPose,
    TriangleMesh,
    bin_index,
    expected_null,
    multipath_bounce,
    ping,
    ray_bin_volume,
    ray_patch_area,
    sample_ray_directions,
    to_db,
    trace_ray,
)
from flsim.raysim import _trace_batch
from flsim.scatter import ObjectMaterial

POSE = SonarPose(altitude_m=5.0, depth_m=7.0)
FORWARD = BeamOrientation(name="forward")


def flat_scene(env, **kw):
    return Scene(env=env, bottom=FlatBottom(depth_m=12.0), **kw)


# --- construction validation -------------------------------------------------


def test_scene_component_validation(scenario1):
    with pytest.raises(ValueError):
        FlatBottom(depth_m=0.0)
    with pytest.raises(ValueError):
        Heightfield(x0=0.0, y0=0.0, spacing_m=1.0, depths=np.ones(5))
    with pytest.raises(ValueError):
        Heightfield(x0=0.0, y0=0.0, spacing_m=1.0, depths=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        Heightfield(x0=0.0, y0=0.0, spacing_m=0.0, depths=np.ones((2, 2)))
    with pytest.raises(ValueError):
        Box(center_m=(0, 0, 0), size_m=(1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        Box(center_m=(0, 0), size_m=(1, 1, 1))
    with pytest.raises(ValueError):
        TriangleMesh(vertices=np.zeros((3, 3)), faces=np.array([[0, 1, 3]]))
    with pytest.raises(ValueError):
        Scene(env=scenario1.env, bottom="mud")
    with pytest.raises(ValueError):
        Scene(env=scenario1.env, objects=("rock",))


def test_ray_validation():
    with pytest.raises(ValueError):
        Ray(origin=(0, 0, 0), direction=(1.0, 1.0, 0.0), remaining_range_m=1.0)
    with pytest.raises(ValueError):
        Ray(origin=(0, 0, 0), direction=(1.0, 0.0, 0.0), remaining_range_m=-1.0)


# --- direction sampling -------------------------------------------------------


def test_sampled_directions_are_unit_and_cover_both_hemispheres():
    rng = np.random.default_rng(5)
    dirs = sample_ray_directions(10000, rng)
    assert dirs.shape == (10000, 3)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    # isotropy smoke check: both signs of every component appear
    assert np.all(dirs.min(axis=0) < -0.5)
    assert np.all(dirs.max(axis=0) > 0.5)


def test_sample_ray_directions_rejects_bad_count():
    with pytest.raises(ValueError):
        sample_ray_directions(0, np.random.default_rng(1))


# --- single-ray tracing -------------------------------------------------------


def test_flat_heightfield_matches_plane(scenario1):
    depths = np.full((5, 5), 12.0)
    hf = Heightfield(x0=-50.0, y0=-50.0, spacing_m=25.0, depths=depths)
    plane = flat_scene(scenario1.env)
    bumpy = Scene(env=scenario1.env, bottom=hf)
    rng = np.random.default_rng(11)
    dirs = sample_ray_directions(200, rng)
    down = dirs[dirs[:, 2] > 0.2]
    for d in down[:40]:
        ray = Ray(origin=(0.0, 0.0, 7.0), direction=tuple(d),
                  remaining_range_m=200.0)
        a = trace_ray(plane, ray)
        b = trace_ray(bumpy, ray)
        assert a is not None and b is not None
        assert a.kind == b.kind == "bottom"
        assert b.distance_m == pytest.approx(a.distance_m, abs=1e-9)
        assert b.grazing_rad == pytest.approx(a.grazing_rad, abs=1e-9)


def test_heightfield_extends_beyond_grid(scenario1):
    # a tiny grid far behind the ray still defines the floor ahead of it
    hf = Heightfield(x0=-2.0, y0=-2.0, spacing_m=1.0,
                     depths=np.full((2, 2), 12.0))
    scene = Scene(env=scenario1.env, bottom=hf)
    d = (math.cos(0.5), 0.0, math.sin(0.5))
    hit = trace_ray(scene, Ray(origin=(0.0, 0.0, 7.0), direction=d,
                               remaining_range_m=100.0))
    assert hit is not None and hit.kind == "bottom"
    assert hit.distance_m == pytest.approx(5.0 / math.sin(0.5), rel=1e-9)


def test_heightfield_ray_crossing_many_cells_is_not_dropped(scenario1):
    # About 490 walls of 0.1 m cells lie between the sonar and the impact at
    # 35 m, far more than the grid's own 2 x 2 nodes; every one is stepped.
    hf = Heightfield(x0=-0.1, y0=-0.1, spacing_m=0.1,
                     depths=np.full((2, 2), 12.0))
    dz = 5.0 / 35.0
    horizontal = np.array([1.0, 0.8]) / math.hypot(1.0, 0.8)
    d = np.append(horizontal * math.sqrt(1.0 - dz * dz), dz)
    ray = Ray(origin=(0.0, 0.0, 7.0), direction=tuple(d / np.linalg.norm(d)),
              remaining_range_m=40.0)
    flat = trace_ray(flat_scene(scenario1.env), ray)
    hit = trace_ray(Scene(env=scenario1.env, bottom=hf), ray)
    assert flat is not None and flat.distance_m == pytest.approx(35.0, rel=1e-9)
    assert hit is not None and hit.kind == "bottom"
    assert hit.distance_m == pytest.approx(flat.distance_m, abs=1e-9)


def test_box_face_hit(scenario1):
    box = Box(center_m=(10.0, 0.0, 6.0), size_m=(2.0, 2.0, 2.0))
    scene = Scene(env=scenario1.env, objects=(box,))
    hit = trace_ray(scene, Ray(origin=(0.0, 0.0, 6.0),
                               direction=(1.0, 0.0, 0.0),
                               remaining_range_m=40.0))
    assert hit is not None
    assert hit.kind == "object"
    assert hit.distance_m == pytest.approx(9.0, abs=1e-12)
    assert hit.normal == pytest.approx((-1.0, 0.0, 0.0))
    assert hit.grazing_rad == pytest.approx(math.pi / 2)
    assert hit.material is not None


def test_specular_bounce_preserves_grazing(scenario1):
    scene = flat_scene(scenario1.env)
    a = math.radians(30.0)
    ray = Ray(origin=(0.0, 0.0, 7.0),
              direction=(math.cos(a), 0.0, math.sin(a)),
              remaining_range_m=40.0)
    hit = trace_ray(scene, ray)
    assert hit.kind == "bottom"
    assert hit.distance_m == pytest.approx(5.0 / math.sin(a), rel=1e-12)
    assert hit.grazing_rad == pytest.approx(a, abs=1e-12)
    bounced, second = multipath_bounce(scene, hit, ray)
    # the reflected direction mirrors the vertical component only
    assert bounced.direction[0] == pytest.approx(math.cos(a), abs=1e-12)
    assert bounced.direction[2] == pytest.approx(-math.sin(a), abs=1e-12)
    assert second is not None and second.kind == "surface"
    assert second.grazing_rad == pytest.approx(a, abs=1e-9)
    assert second.distance_m == pytest.approx(12.0 / math.sin(a), abs=1e-6)


def test_straight_down_bounce_lands_in_round_trip_bin(scenario1, s1_layout):
    scene = flat_scene(scenario1.env)
    ray = Ray(origin=(0.0, 0.0, 7.0), direction=(0.0, 0.0, 1.0),
              remaining_range_m=40.0)
    hit = trace_ray(scene, ray)
    assert hit.kind == "bottom"
    assert hit.distance_m == pytest.approx(5.0, abs=1e-12)
    assert hit.grazing_rad == pytest.approx(math.pi / 2)
    bounced, second = multipath_bounce(scene, hit, ray)
    assert second is not None and second.kind == "surface"
    assert second.distance_m == pytest.approx(12.0, abs=1e-6)
    total = hit.distance_m + second.distance_m
    assert bin_index(total, s1_layout) == 68


def test_bounce_with_no_remaining_range(scenario1):
    scene = flat_scene(scenario1.env)
    ray = Ray(origin=(0.0, 0.0, 7.0), direction=(0.0, 0.0, 1.0),
              remaining_range_m=5.0)
    hit = trace_ray(scene, ray)
    bounced, second = multipath_bounce(scene, hit, ray)
    assert second is None
    assert bounced.remaining_range_m == 0.0


def test_trace_batch_accounts_for_every_ray(scenario1):
    scene = flat_scene(scenario1.env)
    rng = np.random.default_rng(77)
    dirs = sample_ray_directions(4096, rng)
    origins = np.broadcast_to(np.array([0.0, 0.0, 7.0]), dirs.shape)
    kind, t, points, normals, grazing, roughness = _trace_batch(
        scene, origins, dirs, 0.0, 40.25)
    missed = kind < 0
    assert np.array_equal(missed, np.isinf(t))
    assert np.all(t[~missed] <= 40.25)
    assert np.all(np.isfinite(points))
    assert int(missed.sum()) + int((~missed).sum()) == 4096
    # every hit in this scene is a horizontal plane
    assert np.all(np.abs(normals[~missed][:, 2]) == 1.0)


def box_mesh(box):
    """The 12-triangle mesh of a Box, with its material."""
    corners = np.array(
        [[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5) for z in (-0.5, 0.5)]
    ) * np.array(box.size_m) + np.array(box.center_m)
    # corner index = 4 * (x side) + 2 * (y side) + (z side)
    faces = [
        (0, 1, 3), (0, 3, 2), (4, 6, 7), (4, 7, 5),  # x = lo, x = hi
        (0, 4, 5), (0, 5, 1), (2, 3, 7), (2, 7, 6),  # y = lo, y = hi
        (0, 2, 6), (0, 6, 4), (1, 5, 7), (1, 7, 3),  # z = lo, z = hi
    ]
    return TriangleMesh(vertices=corners, faces=np.array(faces),
                        material=box.material)


def test_box_and_its_triangle_mesh_give_the_same_hits(scenario1):
    box = Box(center_m=(10.0, 1.0, 6.5), size_m=(2.0, 3.0, 1.5),
              material=ObjectMaterial(rms_roughness=2.5))
    rng = np.random.default_rng(2024)
    n = 400
    # origins around the sonar, aimed at points scattered about the box so
    # that some rays hit it and the rest pass it
    origins = np.array([0.0, 0.0, 7.0]) + rng.uniform(-1.0, 1.0, (n, 3))
    targets = np.array(box.center_m) + rng.uniform(-1.0, 1.0, (n, 3)) * np.array(
        box.size_m)
    dirs = targets - origins
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    results = []
    for obj in (box, box_mesh(box)):
        scene = flat_scene(scenario1.env, objects=(obj,))
        results.append(_trace_batch(scene, origins, dirs, 0.0, 40.25))
    (kind_b, t_b, _, n_b, _, r_b), (kind_m, t_m, _, n_m, _, r_m) = results
    on_box = kind_b == 2
    assert 50 <= int(on_box.sum()) <= n - 50
    np.testing.assert_array_equal(kind_m, kind_b)
    np.testing.assert_array_equal(r_m, r_b)
    np.testing.assert_allclose(t_m, t_b, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(n_m, n_b, rtol=0.0, atol=1e-9)
    assert np.all(r_b[on_box] == 2.5)


# --- per-ray measures -----------------------------------------------------------


def test_ray_patch_area_shares_and_floor():
    full = ray_patch_area(10.0, math.pi / 2, 1000)
    assert full == pytest.approx(4.0 * math.pi / 1000 * 100.0)
    # shallow impacts are clamped to the one-degree patch
    shallow = ray_patch_area(10.0, 1e-6, 1000)
    assert shallow == pytest.approx(full / math.sin(math.radians(1.0)))
    halved = ray_patch_area(10.0, math.pi / 2, 1000,
                            solid_angle_sr=2.0 * math.pi)
    assert halved == pytest.approx(full / 2.0)
    with pytest.raises(ValueError):
        ray_patch_area(10.0, 0.5, 0)


def test_ray_bin_volume_share(s1_layout):
    v1 = ray_bin_volume(1, s1_layout, 1)
    assert v1 == pytest.approx(4.0 / 3.0 * math.pi * 0.25**3)
    assert ray_bin_volume(1, s1_layout, 10, coverage=0.5) == pytest.approx(
        v1 / 20.0)
    with pytest.raises(ValueError):
        ray_bin_volume(1, s1_layout, 0)


# --- whole pings ------------------------------------------------------------------


def test_ping_rejects_unknown_sampling(scenario1):
    scene = flat_scene(scenario1.env)
    with pytest.raises(ValueError):
        ping(scene, scenario1.sonar, POSE, FORWARD, seed=1,
             sampling="cosine")


def test_ping_is_deterministic_for_a_seed(scenario1):
    scene = flat_scene(scenario1.env)
    sonar = replace(scenario1.sonar, num_rays=4000)
    a = ping(scene, sonar, POSE, FORWARD, transmit_beam=FORWARD, seed=42)
    b = ping(scene, sonar, POSE, FORWARD, transmit_beam=FORWARD, seed=42)
    for name in ("bottom", "surface", "object_", "volume", "multipath",
                 "noise"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    c = ping(scene, sonar, POSE, FORWARD, transmit_beam=FORWARD, seed=43)
    assert not np.array_equal(a.total, c.total)


def test_ping_components_and_layout(scenario1, s1_layout):
    scene = flat_scene(scenario1.env)
    sonar = replace(scenario1.sonar, num_rays=4000)
    pr = ping(scene, sonar, POSE, FORWARD, transmit_beam=FORWARD, seed=7)
    assert pr.layout.num_bins == s1_layout.num_bins
    assert pr.num_rays == 4000
    for arr in (pr.bottom, pr.surface, pr.object_, pr.volume, pr.multipath,
                pr.noise):
        assert arr.shape == (161,)
        assert np.all(arr >= 0.0)
    np.testing.assert_allclose(
        pr.total,
        pr.bottom + pr.surface + pr.object_ + pr.volume + pr.multipath
        + pr.noise)
    # no object in the scene, no object energy; noise was not added
    assert np.all(pr.object_ == 0.0)
    assert np.all(pr.noise == 0.0)
    assert np.all(pr.object_db == NO_RESPONSE)
    np.testing.assert_allclose(pr.bin_centers, s1_layout.centers)


def test_obstacle_adds_energy_at_its_bin(scenario1):
    scene = flat_scene(scenario1.env)
    box = Box(center_m=(10.0, 0.0, 6.0), size_m=(2.0, 2.0, 2.0),
              material=ObjectMaterial())
    with_box = flat_scene(scenario1.env, objects=(box,))
    empty = ping(scene, scenario1.sonar, POSE, FORWARD,
                 transmit_beam=FORWARD, seed=999)
    loaded = ping(with_box, scenario1.sonar, POSE, FORWARD,
                  transmit_beam=FORWARD, seed=999)
    assert loaded.object_.sum() > 0.0
    spike = int(np.argmax(loaded.object_))
    # the echo concentrates near the front face, nine-plus meters out
    assert 36 <= spike + 1 <= 46
    assert loaded.total[spike] >= empty.total[spike]


def test_mean_ping_converges_toward_expectation(scenario1, s1_layout):
    """More rays per ping bring the multi-ping mean closer to the analytic
    expectation over the well-populated bins."""
    scene = flat_scene(scenario1.env)
    null = expected_null(scenario1.env, scenario1.sonar, POSE, FORWARD,
                         s1_layout, transmit_beam=FORWARD)
    eligible = (null.total_db >= -120.0) & (s1_layout.centers <= 20.0)
    assert int(eligible.sum()) >= 60

    def rms_gap(n_rays, seed0):
        sonar = replace(scenario1.sonar, num_rays=n_rays)
        acc = np.zeros(s1_layout.num_bins)
        for k in range(4):
            acc += ping(scene, sonar, POSE, FORWARD, transmit_beam=FORWARD,
                        seed=seed0 + k).total
        gap = to_db(acc[eligible] / 4.0) - null.total_db[eligible]
        return float(np.sqrt(np.mean(gap * gap)))

    coarse = rms_gap(5000, 9005)
    medium = rms_gap(10000, 9010)
    fine = rms_gap(20000, 9020)
    assert fine < medium < coarse


def test_hemisphere_sampling_estimates_the_same_ping(scenario1, s1_layout):
    """Folding rays into the transmit hemisphere halves their solid-angle
    share and must not shift the estimate."""
    scene = flat_scene(scenario1.env)
    null = expected_null(scenario1.env, scenario1.sonar, POSE, FORWARD,
                         s1_layout, transmit_beam=FORWARD)
    eligible = (null.total_db >= -120.0) & (s1_layout.centers <= 20.0)
    means = {}
    for mode in ("sphere", "transmit_hemisphere"):
        acc = np.zeros(s1_layout.num_bins)
        for k in range(3):
            acc += ping(scene, scenario1.sonar, POSE, FORWARD,
                        transmit_beam=FORWARD, seed=7100 + k,
                        sampling=mode).total
        means[mode] = acc / 3.0
    both = eligible & (means["sphere"] > 0) & (means["transmit_hemisphere"] > 0)
    gap = to_db(means["transmit_hemisphere"][both]) - to_db(means["sphere"][both])
    assert float(np.sqrt(np.mean(gap * gap))) < 1.0
    assert float(np.max(np.abs(gap))) < 3.5
