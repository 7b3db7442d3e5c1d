import math
import re
from dataclasses import replace

import numpy as np
import pytest

from flsim import (
    BeamOrientation,
    FlatBottom,
    Heightfield,
    NO_RESPONSE,
    Scene,
    SonarPose,
    TriangleMesh,
    bin_index,
    box_mesh,
    expected_null,
    ping,
    ray_bin_volume,
    ray_patch_area,
    sample_ray_directions,
    to_db,
)
from flsim import raysim
from flsim.raysim import (
    BOUNCE_MIN_T,
    KIND_BOTTOM,
    KIND_OBJECT,
    KIND_SURFACE,
    _bounce,
    _trace_batch,
)
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
    with pytest.raises(ValueError, match=re.escape(
            "size_m components must be > 0, got (1.0, 0.0, 1.0)")):
        box_mesh((0, 0, 0), (1.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="3 components"):
        box_mesh((0, 0), (1, 1, 1))
    with pytest.raises(ValueError):
        TriangleMesh(vertices=np.zeros((3, 3)), faces=np.array([[0, 1, 3]]))
    with pytest.raises(ValueError):
        Scene(env=scenario1.env, bottom="mud")
    with pytest.raises(ValueError):
        Scene(env=scenario1.env, objects=("rock",))


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


def trace_one(scene, origin, direction, max_range):
    """Row 0 of a one-ray _trace_batch call: (kind, t, point, normal,
    grazing, roughness)."""
    trace = _trace_batch(scene, np.array([origin], dtype=float),
                         np.array([direction], dtype=float), 0.0, max_range)
    return tuple(column[0] for column in trace)


def bounce_one(scene, hit, direction, max_range):
    """Specular bounce through _bounce of a hit that trace_one found within
    max_range: the reflected direction, whether any range is left, and row
    0 of the retrace (None when nothing is retraced)."""
    _, t, point, normal, _, _ = hit
    _, refl, live, trace = _bounce(
        scene, np.array([point]), np.array([direction], dtype=float),
        np.array([normal]), np.array([max_range - t]))
    second = None if trace is None else tuple(column[0] for column in trace)
    return refl[0], bool(live[0]), second


def test_flat_heightfield_matches_plane(scenario1):
    depths = np.full((5, 5), 12.0)
    hf = Heightfield(x0=-50.0, y0=-50.0, spacing_m=25.0, depths=depths)
    plane = flat_scene(scenario1.env)
    bumpy = Scene(env=scenario1.env, bottom=hf)
    rng = np.random.default_rng(11)
    dirs = sample_ray_directions(200, rng)
    down = dirs[dirs[:, 2] > 0.2][:40]
    origins = np.broadcast_to(np.array([0.0, 0.0, 7.0]), down.shape)
    kind_a, t_a, _, _, grazing_a, _ = _trace_batch(plane, origins, down, 0.0, 200.0)
    kind_b, t_b, _, _, grazing_b, _ = _trace_batch(bumpy, origins, down, 0.0, 200.0)
    assert np.all(kind_a == KIND_BOTTOM) and np.all(kind_b == KIND_BOTTOM)
    np.testing.assert_allclose(t_b, t_a, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(grazing_b, grazing_a, rtol=0.0, atol=1e-9)


def test_heightfield_extends_beyond_grid(scenario1):
    # a tiny grid far behind the ray still defines the floor ahead of it
    hf = Heightfield(x0=-2.0, y0=-2.0, spacing_m=1.0,
                     depths=np.full((2, 2), 12.0))
    scene = Scene(env=scenario1.env, bottom=hf)
    d = (math.cos(0.5), 0.0, math.sin(0.5))
    kind, t, *_ = trace_one(scene, (0.0, 0.0, 7.0), d, 100.0)
    assert kind == KIND_BOTTOM
    assert t == pytest.approx(5.0 / math.sin(0.5), rel=1e-9)


def test_heightfield_ray_crossing_many_cells_is_not_dropped(scenario1):
    # About 490 walls of 0.1 m cells lie between the sonar and the impact at
    # 35 m, far more than the grid's own 2 x 2 nodes; every one is stepped.
    hf = Heightfield(x0=-0.1, y0=-0.1, spacing_m=0.1,
                     depths=np.full((2, 2), 12.0))
    dz = 5.0 / 35.0
    horizontal = np.array([1.0, 0.8]) / math.hypot(1.0, 0.8)
    d = np.append(horizontal * math.sqrt(1.0 - dz * dz), dz)
    d /= np.linalg.norm(d)
    flat_kind, flat_t, *_ = trace_one(flat_scene(scenario1.env),
                                      (0.0, 0.0, 7.0), d, 40.0)
    kind, t, *_ = trace_one(Scene(env=scenario1.env, bottom=hf),
                            (0.0, 0.0, 7.0), d, 40.0)
    assert flat_kind == KIND_BOTTOM and flat_t == pytest.approx(35.0, rel=1e-9)
    assert kind == KIND_BOTTOM
    assert t == pytest.approx(flat_t, abs=1e-9)


def test_box_face_hit(scenario1):
    box = box_mesh((10.0, 0.0, 6.0), (2.0, 2.0, 2.0))
    scene = Scene(env=scenario1.env, objects=(box,))
    kind, t, _, normal, grazing, roughness = trace_one(
        scene, (0.0, 0.0, 6.0), (1.0, 0.0, 0.0), 40.0)
    assert kind == KIND_OBJECT
    assert t == pytest.approx(9.0, abs=1e-12)
    assert tuple(normal) == pytest.approx((-1.0, 0.0, 0.0))
    assert grazing == pytest.approx(math.pi / 2)
    assert roughness == box.material.rms_roughness


def test_specular_bounce_preserves_grazing(scenario1):
    scene = flat_scene(scenario1.env)
    a = math.radians(30.0)
    d = (math.cos(a), 0.0, math.sin(a))
    hit = trace_one(scene, (0.0, 0.0, 7.0), d, 40.0)
    kind, t, _, _, grazing, _ = hit
    assert kind == KIND_BOTTOM
    assert t == pytest.approx(5.0 / math.sin(a), rel=1e-12)
    assert grazing == pytest.approx(a, abs=1e-12)
    refl, live, second = bounce_one(scene, hit, d, 40.0)
    # the reflected direction mirrors the vertical component only
    assert refl[0] == pytest.approx(math.cos(a), abs=1e-12)
    assert refl[2] == pytest.approx(-math.sin(a), abs=1e-12)
    assert live and second is not None
    kind2, t2, _, _, grazing2, _ = second
    assert kind2 == KIND_SURFACE
    assert grazing2 == pytest.approx(a, abs=1e-9)
    assert t2 == pytest.approx(12.0 / math.sin(a), abs=1e-6)


def test_straight_down_bounce_lands_in_round_trip_bin(scenario1, s1_layout):
    scene = flat_scene(scenario1.env)
    d = (0.0, 0.0, 1.0)
    hit = trace_one(scene, (0.0, 0.0, 7.0), d, 40.0)
    kind, t, _, _, grazing, _ = hit
    assert kind == KIND_BOTTOM
    assert t == pytest.approx(5.0, abs=1e-12)
    assert grazing == pytest.approx(math.pi / 2)
    _, live, second = bounce_one(scene, hit, d, 40.0)
    assert live and second is not None
    kind2, t2, *_ = second
    assert kind2 == KIND_SURFACE
    assert t2 == pytest.approx(12.0, abs=1e-6)
    assert bin_index(t + t2, s1_layout) == 68


def test_bounce_with_no_remaining_range(scenario1):
    scene = flat_scene(scenario1.env)
    d = (0.0, 0.0, 1.0)
    hit = trace_one(scene, (0.0, 0.0, 7.0), d, 5.0)
    assert hit[1] == 5.0  # the whole range is used up at the impact
    _, live, second = bounce_one(scene, hit, d, 5.0)
    assert not live
    assert second is None


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


def test_a_ray_leaving_a_box_from_inside_hits_its_exit_face(scenario1):
    scene = flat_scene(scenario1.env,
                       objects=(box_mesh((5.0, 0.0, 7.0), (2.0, 2.0, 2.0)),))
    kind, t, _, normal, grazing, _ = trace_one(
        scene, (5.0, 0.0, 7.0), (1.0, 0.0, 0.0), 40.0)
    assert kind == KIND_OBJECT
    assert t == 1.0
    assert tuple(normal) == (-1.0, 0.0, 0.0)
    assert grazing == pytest.approx(math.pi / 2)


# --- the mesh kernel against brute-force references ------------------------------


def slab_box(center_m, size_m, origins, dirs, t_min):
    """Kay-Kajiya slab test of an axis-aligned box: (t, normals) like the
    mesh kernel. A ray that starts inside the box, or on its boundary,
    counts as a miss."""
    lo = np.asarray(center_m) - 0.5 * np.asarray(size_m)
    hi = np.asarray(center_m) + 0.5 * np.asarray(size_m)
    n = origins.shape[0]
    t1 = np.empty((n, 3))
    t2 = np.empty((n, 3))
    for ax in range(3):
        d_ax = dirs[:, ax]
        o_ax = origins[:, ax]
        parallel = np.abs(d_ax) < 1e-300
        with np.errstate(divide="ignore", invalid="ignore"):
            a = (lo[ax] - o_ax) / d_ax
            b = (hi[ax] - o_ax) / d_ax
        inside = (o_ax >= lo[ax]) & (o_ax <= hi[ax])
        a = np.where(parallel, np.where(inside, -np.inf, np.inf), a)
        b = np.where(parallel, np.where(inside, np.inf, -np.inf), b)
        t1[:, ax] = np.minimum(a, b)
        t2[:, ax] = np.maximum(a, b)
    t_near = t1.max(axis=1)
    t_far = t2.min(axis=1)
    hit = (t_near <= t_far) & (t_near > t_min)
    t = np.where(hit, t_near, np.inf)
    axis = t1.argmax(axis=1)
    normals = np.zeros((n, 3))
    rows = np.arange(n)
    normals[rows, axis] = -np.sign(dirs[rows, axis])
    return t, normals


def brute_force_mesh(mesh, origins, dirs, t_min, chunk=4096):
    """Moller-Trumbore of every ray against every face, with no cull:
    (t, normals) like the mesh kernel."""
    v0 = mesh.vertices[mesh.faces[:, 0]]
    e1 = mesh.vertices[mesh.faces[:, 1]] - v0
    e2 = mesh.vertices[mesh.faces[:, 2]] - v0
    n = origins.shape[0]
    t_best = np.full(n, np.inf)
    normals = np.zeros((n, 3))
    face_n = np.cross(e1, e2)
    for start in range(0, n, chunk):
        sl = slice(start, min(start + chunk, n))
        o = origins[sl][:, None, :]
        dr = dirs[sl][:, None, :]
        pvec = np.cross(dr, e2[None, :, :])
        det = np.einsum("rfc,fc->rf", pvec, e1)
        tvec = o - v0[None, :, :]
        qvec = np.cross(tvec, e1[None, :, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_det = 1.0 / det
            u = np.einsum("rfc,rfc->rf", tvec, pvec) * inv_det
            v = np.einsum("rfc,rfc->rf", qvec, dr) * inv_det
            t = np.einsum("rfc,fc->rf", qvec, e2) * inv_det
            ok = (
                (np.abs(det) > 1e-300)
                & (u >= 0.0)
                & (v >= 0.0)
                & (u + v <= 1.0)
                & (t > t_min)
            )
        t = np.where(ok, t, np.inf)
        best = t.argmin(axis=1)
        rows = np.arange(t.shape[0])
        tb = t[rows, best]
        better = tb < t_best[sl]
        gi = np.nonzero(better)[0] + start
        t_best[gi] = tb[better]
        fn = face_n[best[better]]
        sign = -np.sign(np.einsum("rc,rc->r", fn, dirs[gi]))
        sign = np.where(sign == 0.0, 1.0, sign)
        normals[gi] = fn * sign[:, None] / np.linalg.norm(fn, axis=-1, keepdims=True)
    return t_best, normals


def test_box_and_its_triangle_mesh_give_the_same_hits(scenario1, monkeypatch):
    center, size = (10.0, 1.0, 6.5), (2.0, 3.0, 1.5)
    mesh = box_mesh(center, size, ObjectMaterial(rms_roughness=2.5))
    rng = np.random.default_rng(2024)
    n = 400
    # origins around the sonar, aimed at points scattered about the box so
    # that some rays hit it and the rest pass it
    origins = np.array([0.0, 0.0, 7.0]) + rng.uniform(-1.0, 1.0, (n, 3))
    targets = np.array(center) + rng.uniform(-1.0, 1.0, (n, 3)) * np.array(size)
    dirs = targets - origins
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    scene = flat_scene(scenario1.env, objects=(mesh,))
    kind_m, t_m, _, n_m, _, r_m = _trace_batch(scene, origins, dirs, 0.0, 40.25)
    with monkeypatch.context() as patch:
        patch.setattr(raysim, "_trace_mesh", lambda obj, o, d, t_min: slab_box(
            center, size, o, d, t_min))
        kind_b, t_b, _, n_b, _, r_b = _trace_batch(scene, origins, dirs, 0.0, 40.25)
    on_box = kind_b == KIND_OBJECT
    assert 50 <= int(on_box.sum()) <= n - 50
    np.testing.assert_array_equal(kind_m, kind_b)
    np.testing.assert_array_equal(r_m, r_b)
    np.testing.assert_allclose(t_m, t_b, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(n_m, n_b, rtol=0.0, atol=1e-9)
    assert np.all(r_b[on_box] == 2.5)


def random_mesh(rng):
    """A triangle soup or a box mesh with a random place and size in front
    of the sonar."""
    center = np.array([rng.uniform(2.0, 20.0), rng.uniform(-5.0, 5.0),
                       rng.uniform(3.0, 11.0)])
    size = rng.uniform(0.2, 4.0, 3)
    if rng.random() < 0.5:
        return box_mesh(center, size)
    vertices = center + rng.uniform(-0.5, 0.5, (int(rng.integers(3, 40)), 3)) * size
    faces = [rng.choice(vertices.shape[0], 3, replace=False)
             for _ in range(int(rng.integers(1, 60)))]
    return TriangleMesh(vertices=vertices, faces=faces)


def probe_rays(rng, mesh):
    """Rays from the sonar, from inside the mesh's bounding box, aimed at
    its vertices, and lying in or just outside the planes of the box's
    faces; some directions have components that are exactly 0."""
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    n = 400
    sonar = np.broadcast_to([0.0, 0.0, 7.0], (n, 3))
    inside = rng.uniform(lo, hi, (n, 3))
    to_vertex = mesh.vertices[rng.integers(0, mesh.vertices.shape[0], n)]
    origins = [sonar, inside, sonar, inside]
    dirs = [sample_ray_directions(n, rng), sample_ray_directions(n, rng),
            to_vertex - sonar, to_vertex - inside]
    # in a face plane of the box, or 1e-12 to 1e-6 of the box outside it
    axis = rng.integers(0, 3, n)
    rows = np.arange(n)
    side = rng.random(n) < 0.5
    gap = np.where(rng.random(n) < 0.5, 0.0, 10.0 ** rng.uniform(-12, -6, n))
    plane = inside.copy()
    plane[rows, axis] = np.where(side, hi[axis] + gap, lo[axis] - gap)
    flat = sample_ray_directions(n, rng)
    flat[rows, axis] = 0.0
    origins.append(plane)
    dirs.append(flat)
    origins = np.concatenate(origins)
    dirs = np.concatenate(dirs)
    # zero one more component of a tenth of the rays
    some = rng.random(dirs.shape[0]) < 0.1
    dirs[some, rng.integers(0, 3, int(some.sum()))] = 0.0
    norms = np.linalg.norm(dirs, axis=1)
    keep = norms > 0.0
    return origins[keep], dirs[keep] / norms[keep, None]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("t_min", [0.0, BOUNCE_MIN_T])
def test_mesh_kernel_reproduces_brute_force(scenario1, monkeypatch, seed, t_min):
    rng = np.random.default_rng(seed)
    scene = flat_scene(scenario1.env,
                       objects=(random_mesh(rng), random_mesh(rng)))
    for mesh in scene.objects:
        origins, dirs = probe_rays(rng, mesh)
        kind, t, _, normals, _, _ = _trace_batch(scene, origins, dirs, t_min, 40.0)
        with monkeypatch.context() as patch:
            patch.setattr(raysim, "_trace_mesh", brute_force_mesh)
            kind_b, t_b, _, normals_b, _, _ = _trace_batch(
                scene, origins, dirs, t_min, 40.0)
        assert np.any(kind_b == KIND_OBJECT)
        np.testing.assert_array_equal(kind, kind_b)
        np.testing.assert_array_equal(t, t_b)
        np.testing.assert_array_equal(normals, normals_b)


# --- per-ray measures -----------------------------------------------------------


def test_ray_patch_area_shares_and_floor():
    full = ray_patch_area(10.0, math.pi / 2, 1000)
    assert full == pytest.approx(4.0 * math.pi / 1000 * 100.0)
    # shallow impacts are clamped to the one-degree patch
    shallow = ray_patch_area(10.0, 1e-6, 1000)
    assert shallow == pytest.approx(full / math.sin(math.radians(1.0)))
    with pytest.raises(ValueError):
        ray_patch_area(10.0, 0.5, 0)


def test_ray_bin_volume_share(s1_layout):
    v1 = ray_bin_volume(1, s1_layout, 1)
    assert v1 == pytest.approx(4.0 / 3.0 * math.pi * 0.25**3)
    with pytest.raises(ValueError):
        ray_bin_volume(1, s1_layout, 0)


# --- whole pings ------------------------------------------------------------------


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
    box = box_mesh((10.0, 0.0, 6.0), (2.0, 2.0, 2.0), ObjectMaterial())
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
