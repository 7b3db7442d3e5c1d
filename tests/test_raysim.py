import math
import re
import runpy
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from flsim import (
    BeamOrientation,
    FlatBottom,
    NO_RESPONSE,
    Scene,
    SonarPose,
    TriangleMesh,
    bin_index,
    box_mesh,
    build_scene,
    expected_null,
    ping,
    ray_bin_volume,
    ray_patch_area,
    sample_ray_directions,
    to_db,
)
from flsim import raysim
from flsim.acoustics import absorption_coeff, beam_gain, transmission_loss
from flsim.db import to_linear
from flsim.geometry import rotate_to_sonar_frame, rotation_matrix_yaw
from flsim.raysim import (
    BOUNCE_MIN_T,
    KIND_BOTTOM,
    KIND_OBJECT,
    KIND_SURFACE,
    MIN_GRAZING_RAD,
    _bounce,
    _trace_batch,
)
from flsim.scatter import ObjectMaterial, bottom_coeff, surface_coeff
from flsim.scenario import STEP_RAMP_M, _bottom
from one_beam import ping_beam

ROOT = Path(__file__).resolve().parent.parent
POSE = SonarPose(altitude_m=5.0, depth_m=7.0)
FORWARD = BeamOrientation(name="forward")
COMPONENTS = ("bottom", "surface", "object_", "volume", "multipath")


def flat_scene(env, **kw):
    return Scene(env=env, bottom=FlatBottom(depth_m=12.0), **kw)


def step_bottom(distance, rise, base=12.0, end_m=40.25):
    """The bottom a scenario builds for a step of these parameters over a
    base depth, for rays that travel at most end_m from x = y = 0."""
    spec = {"type": "step", "distance_m": distance, "rise_m": rise}
    return _bottom(spec, base, end_m)


# --- construction validation -------------------------------------------------


def test_scene_component_validation(scenario1):
    with pytest.raises(ValueError):
        FlatBottom(depth_m=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            FlatBottom(depth_m=bad)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            TriangleMesh(vertices=[[0, 0, 0], [1, 0, bad], [0, 1, 0]],
                         faces=[[0, 1, 2]])
    with pytest.raises(ValueError, match=re.escape(
            "size_m components must be > 0, got (1.0, 0.0, 1.0)")):
        box_mesh((0, 0, 0), (1.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="3 components"):
        box_mesh((0, 0), (1, 1, 1))
    with pytest.raises(ValueError):
        TriangleMesh(vertices=np.zeros((3, 3)), faces=np.array([[0, 1, 3]]))
    with pytest.raises(ValueError):
        Scene(env=scenario1.env, bottom="mud")
    Scene(env=scenario1.env, bottom=box_mesh((0, 0, 12), (50, 50, 1)))
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


def test_sampling_directions_holds_little_more_than_its_result():
    """The directions take 24 bytes a ray; drawing them takes 8 more for the
    norms, which are taken in chunks and divided in place. numpy reports its
    buffers to tracemalloc, so the traced peak may grow by at most 40 bytes
    per extra ray; norms over the whole draw and a divided copy take 64."""

    def peak_bytes(n):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sample_ray_directions(n, np.random.default_rng(1))
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    small, large = peak_bytes(200_000), peak_bytes(400_000)
    assert (large - small) / 200_000 <= 40.0


# --- single-ray tracing -------------------------------------------------------


def trace_one(scene, origin, direction, max_range):
    """Row 0 of a one-ray _trace_batch call: (kind, t, point, normal,
    grazing, roughness)."""
    trace = _trace_batch(scene, np.array([origin], dtype=float),
                         np.array([direction], dtype=float), 0.0, max_range)
    return tuple(column[0] for column in trace)


def bounce_one(scene, hit, direction, max_range):
    """Specular bounce through _bounce of a hit that trace_one found within
    max_range: the reflected direction and row 0 of the retrace."""
    _, t, point, normal, _, _ = hit
    refl, trace = _bounce(
        scene, np.array([point]), np.array([direction], dtype=float),
        np.array([normal]), np.array([max_range - t]))
    return refl[0], tuple(column[0] for column in trace)


def test_flat_heightfield_matches_plane(scenario1):
    # a step that does not rise is a flat 6-face mesh
    hf = step_bottom(5.0, 0.0)
    assert isinstance(hf, TriangleMesh) and np.all(hf.vertices[:, 2] == 12.0)
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
    # a step rising 2 m between 0.5 and 1 m defines the floor far from its
    # ramp, on either side
    scene = Scene(env=scenario1.env, bottom=step_bottom(0.5, 2.0))
    for heading, depth in ((-1.0, 12.0), (1.0, 10.0)):
        d = (heading * math.cos(0.5), 0.0, math.sin(0.5))
        kind, t, point, normal, _, _ = trace_one(scene, (0.0, 0.0, 7.0), d, 100.0)
        assert kind == KIND_BOTTOM
        assert t == pytest.approx((depth - 7.0) / math.sin(0.5), rel=1e-12)
        assert abs(point[0]) > 5.0
        assert tuple(normal) == (0.0, 0.0, -1.0)


def test_heightfield_ray_crossing_many_cells_is_not_dropped(scenario1):
    # A long oblique ray lands on the deep side at 35 m, 1 m short of the
    # rise: the step is six faces, not cells to walk, so nothing on the way
    # can drop it.
    hf = step_bottom(36.0, 2.0)
    assert hf.faces.shape == (6, 3)
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
    refl, second = bounce_one(scene, hit, d, 40.0)
    # the reflected direction mirrors the vertical component only
    assert refl[0] == pytest.approx(math.cos(a), abs=1e-12)
    assert refl[2] == pytest.approx(-math.sin(a), abs=1e-12)
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
    _, second = bounce_one(scene, hit, d, 40.0)
    kind2, t2, *_ = second
    assert kind2 == KIND_SURFACE
    assert t2 == pytest.approx(12.0, abs=1e-6)
    assert bin_index(t + t2, s1_layout) == 68


def test_bounce_with_no_remaining_range(scenario1):
    scene = flat_scene(scenario1.env)
    d = (0.0, 0.0, 1.0)
    hit = trace_one(scene, (0.0, 0.0, 7.0), d, 5.0)
    assert hit[1] == 5.0  # the whole range is used up at the impact
    _, (kind2, t2, *_) = bounce_one(scene, hit, d, 5.0)
    assert kind2 == -1  # the retrace misses
    assert t2 == math.inf


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


@pytest.mark.parametrize("bottom, objects", [
    pytest.param(FlatBottom(depth_m=12.0),
                 (box_mesh((15.0, 0.0, 10.0), (2.0, 2.0, 2.0)),), id="box"),
    pytest.param(step_bottom(35.0, 2.0), (), id="step"),
])
def test_trace_batch_takes_an_empty_batch(scenario1, bottom, objects):
    """A bounce retraces its impacts even when there are none."""
    scene = Scene(env=scenario1.env, bottom=bottom, objects=objects)
    trace = _trace_batch(scene, np.zeros((0, 3)), np.zeros((0, 3)), 0.0, 40.0)
    assert [len(column) for column in trace] == [0] * 6


def test_every_miss_is_decided_by_one_rule(scenario1):
    """One batch on a flat scene holds a tangent hit (1e-12 m above the
    floor, 1e-11 rad from level), a hit beyond its own t_max, a level ray
    that escapes, a hit at exactly its t_max and ordinary hits. A miss has
    kind -1, t inf and grazing 0; a hit grazes at MIN_GRAZING_RAD or more
    and lies within its t_max."""
    scene = flat_scene(scenario1.env)
    tilt = 1e-11
    origins = np.array([[0.0, 0.0, 12.0 - 1e-12]] + [[0.0, 0.0, 7.0]] * 7)
    dirs = np.array([[math.cos(tilt), 0.0, math.sin(tilt)], [0.0, 0.0, 1.0],
                     [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.6, 0.0, 0.8],
                     [0.0, -0.6, -0.8], [0.48, 0.64, 0.6], [-0.8, 0.0, -0.6]])
    t_max = np.array([40.0, 4.0, 40.0, 5.0, 40.0, 40.0, 40.0, 40.0])
    kind, t, _, _, grazing, _ = _trace_batch(scene, origins, dirs, 0.0, t_max)
    missed = kind < 0
    assert missed.tolist() == [True, True, True] + [False] * 5
    assert np.array_equal(missed, np.isinf(t))
    assert np.all(grazing[missed] == 0.0)
    assert np.all(grazing[~missed] >= MIN_GRAZING_RAD)
    assert np.all(t[~missed] <= t_max[~missed])
    assert t[3] == 5.0


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
    """The kernel must find brute_force_mesh's hits exactly, in blocks of its
    own size and, on every fourth ray, in blocks of 8 ray-face pairs: fewer
    than a box's 12 faces, so that such a block holds one ray."""
    rng = np.random.default_rng(seed)
    scene = flat_scene(scenario1.env,
                       objects=(random_mesh(rng), random_mesh(rng)))
    assert max(mesh.faces.shape[0] for mesh in scene.objects) > 8
    for mesh in scene.objects:
        origins, dirs = probe_rays(rng, mesh)
        with monkeypatch.context() as patch:
            patch.setattr(raysim, "_trace_mesh", brute_force_mesh)
            kind_b, t_b, _, normals_b, _, _ = _trace_batch(
                scene, origins, dirs, t_min, 40.0)
        assert np.any(kind_b == KIND_OBJECT)
        for budget, rows in ((raysim.MESH_BLOCK_PAIRS, slice(None)),
                             (8, slice(None, None, 4))):
            with monkeypatch.context() as patch:
                patch.setattr(raysim, "MESH_BLOCK_PAIRS", budget)
                kind, t, _, normals, _, _ = _trace_batch(
                    scene, origins[rows], dirs[rows], t_min, 40.0)
            np.testing.assert_array_equal(kind, kind_b[rows])
            np.testing.assert_array_equal(t, t_b[rows])
            np.testing.assert_array_equal(normals, normals_b[rows])


def same_bits(x, y):
    """Equal bit for bit, but for the payload of a nan."""
    nan = np.isnan(x)
    return (np.array_equal(nan, np.isnan(y))
            and np.array_equal(x[~nan].view(np.uint64), y[~nan].view(np.uint64)))


def test_the_mesh_kernel_adds_as_einsum_and_np_cross_do():
    """Tripwire for the summation order. The mesh kernel adds a 3-term dot
    product as (a0*b0 + a2*b2) + a1*b1, which is what np.einsum's SIMD loops
    do on numpy 2.4; another numpy or CPU may add otherwise. brute_force_mesh
    and the outputs behind tests/golden/ were made with einsum. The data,
    with magnitudes from 1e-8 to 1e8 and rows of inf and nan, tell that
    order from the others."""
    rng = np.random.default_rng(18)
    a, b = (rng.standard_normal((4096, 3)) * 10.0 ** rng.uniform(-8, 8, (4096, 3))
            for _ in range(2))
    a[:4] = [[np.inf, 1.0, -np.inf], [np.nan, 0.0, 1.0], [1.0, np.inf, 2.0],
             [-np.inf, 0.0, 0.0]]
    b[:4] = [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 0.0]]
    moved = ("a numpy or CPU change moved np.einsum's summation order: the mesh "
             "kernel (raysim._dot) no longer adds as einsum does, so "
             "brute_force_mesh and tests/golden/ will disagree with the kernel "
             "in the last bits; check numpy.show_runtime()'s SIMD dispatch")
    # brute_force_mesh's forms too: pairs, and one face term against rays
    pairs_a, pairs_b = a.reshape(64, 64, 3), b.reshape(64, 64, 3)
    with np.errstate(invalid="ignore"):
        assert same_bits(raysim._dot(a.T, b.T), np.einsum("rc,rc->r", a, b)), moved
        assert same_bits(raysim._dot(pairs_a.transpose(2, 0, 1),
                                     pairs_b.transpose(2, 0, 1)),
                         np.einsum("rfc,rfc->rf", pairs_a, pairs_b)), moved
        assert same_bits(raysim._dot(pairs_a.transpose(2, 0, 1), b[:64].T),
                         np.einsum("rfc,fc->rf", pairs_a, b[:64])), moved
        in_order = (a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]) + a[:, 2] * b[:, 2]
        assert not same_bits(in_order, np.einsum("rc,rc->r", a, b))
        assert same_bits(np.stack(raysim._cross(a.T, b.T), axis=1),
                         np.cross(a, b)), "np.cross changed its operations"


def mesh_sim_icosphere():
    """The mesh_sim benchmark workload's obstacle at its seed 1: the
    320-face icosphere of 1 m radius about 15 m ahead at 10 m depth."""
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    verts, faces = workloads["icosphere"](workloads["MESH_SUBDIVISIONS"])
    center = workloads["mesh_center"](1)
    return TriangleMesh(vertices=center + workloads["MESH_RADIUS_M"] * verts,
                        faces=faces)


@pytest.mark.parametrize("case", ["flat", "step", "box", "icosphere"])
def test_a_shared_origin_traces_as_its_rows_do(scenario1, scenario2, case):
    """A ping passes its one origin as a (1, 3) array. Every array that
    _trace_batch returns must equal the trace from that origin repeated on
    every row, also for an empty batch."""
    sc = scenario2 if case == "step" else scenario1
    scene = build_scene(sc)
    if case == "box":
        scene = replace(scene, objects=(box_mesh((15.0, 0.0, 10.0), (2.0, 2.0, 2.0)),))
    if case == "icosphere":
        scene = replace(scene, objects=(mesh_sim_icosphere(),))
    origin = np.array([[0.0, 0.0, sc.pose.depth_m]])
    dirs = sample_ray_directions(20000, np.random.default_rng(4))
    shared = _trace_batch(scene, origin, dirs, 0.0, 40.25)
    rows = _trace_batch(scene, np.broadcast_to(origin, dirs.shape), dirs, 0.0, 40.25)
    for a, b in zip(shared, rows):
        np.testing.assert_array_equal(a, b, strict=True)
    expected = KIND_BOTTOM if case in ("flat", "step") else KIND_OBJECT
    assert np.count_nonzero(shared[0] == expected) > 10
    empty = _trace_batch(scene, origin, np.zeros((0, 3)), 0.0, 40.25)
    assert [column.shape[0] for column in empty] == [0] * 6


@pytest.mark.parametrize("case", ["step", "icosphere"])
@pytest.mark.parametrize("budget", [1, 2**20])
def test_the_block_size_does_not_change_the_hits(scenario2, monkeypatch, case,
                                                 budget):
    """_trace_mesh in blocks of one ray (a budget of 1 ray-face pair) and
    all rays in one block must return what it returns in blocks of
    MESH_BLOCK_PAIRS, from a shared origin and from one origin per ray."""
    mesh = (build_scene(scenario2).bottom if case == "step"
            else mesh_sim_icosphere())
    assert isinstance(mesh, TriangleMesh)
    rng = np.random.default_rng(7)
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    sonar = np.array([[0.0, 0.0, scenario2.pose.depth_m]])
    origins = sonar + rng.uniform(-1.0, 1.0, (1500, 3))
    dirs = rng.uniform(lo - 1.0, hi + 1.0, (1500, 3)) - origins
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for o in (sonar, origins):
        whole = raysim._trace_mesh(mesh, o, dirs, 0.0)
        monkeypatch.setattr(raysim, "MESH_BLOCK_PAIRS", budget)
        blocked = raysim._trace_mesh(mesh, o, dirs, 0.0)
        monkeypatch.undo()
        assert np.count_nonzero(np.isfinite(whole[0])) > 100
        for a, b in zip(blocked, whole):
            np.testing.assert_array_equal(a, b, strict=True)


def rays_at(mesh, rng, n=2000):
    """Rays from about the sonar of scenario1 aimed at random points of the
    mesh's bounding box, padded by 0.2 m: from the sonar itself only about
    one ray in a thousand meets the icosphere."""
    lo, hi = mesh.vertices.min(axis=0) - 0.2, mesh.vertices.max(axis=0) + 0.2
    origins = np.array([0.0, 0.0, 7.0]) + rng.uniform(-1.0, 1.0, (n, 3))
    dirs = rng.uniform(lo, hi, (n, 3)) - origins
    return origins, dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def test_the_face_order_does_not_change_the_hits():
    """Each ray's nearest hit is a minimum over faces, so permuting the faces
    leaves t and the normals bit-identical."""
    mesh = mesh_sim_icosphere()
    rng = np.random.default_rng(7)
    shuffled = TriangleMesh(vertices=mesh.vertices,
                            faces=mesh.faces[rng.permutation(len(mesh.faces))])
    origins, dirs = rays_at(mesh, rng)
    for o in (origins[:1], origins):
        t, normals = raysim._trace_mesh(mesh, o, dirs, 0.0)
        t_s, normals_s = raysim._trace_mesh(shuffled, o, dirs, 0.0)
        assert np.count_nonzero(np.isfinite(t)) > 400
        np.testing.assert_array_equal(t_s, t, strict=True)
        np.testing.assert_array_equal(normals_s, normals, strict=True)


def test_the_vertex_winding_does_not_change_the_hits():
    """Reversing every face's winding turns its normal over; the kernel
    turns each hit's normal against its ray, so the normals are identical,
    the same rays hit and t agrees up to the rounding of the other edge
    order."""
    mesh = mesh_sim_icosphere()
    rng = np.random.default_rng(7)
    reversed_ = TriangleMesh(vertices=mesh.vertices, faces=mesh.faces[:, [0, 2, 1]])
    origins, dirs = rays_at(mesh, rng)
    for o in (origins[:1], origins):
        t, normals = raysim._trace_mesh(mesh, o, dirs, 0.0)
        t_r, normals_r = raysim._trace_mesh(reversed_, o, dirs, 0.0)
        hit = np.isfinite(t)
        assert np.count_nonzero(hit) > 400
        np.testing.assert_array_equal(np.isfinite(t_r), hit)
        np.testing.assert_allclose(t_r[hit], t[hit], rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(normals_r, normals, strict=True)


def test_a_mirrored_mesh_scene_pings_bit_identically(scenario1, monkeypatch):
    """Metamorphic check: scenario1 with the mesh_sim icosphere, which sits
    off the x axis, against its mirror image in y -> -y. A beam pitched 10
    deg and yawed +20 deg over the mirrored scene, with every ray direction
    mirrored, must give the ping of the beam yawed -20 deg over the original
    scene bit for bit. Most rays are bent toward the icosphere."""
    monkeypatch.setattr(raysim, "PING_CHUNK_RAYS", 4999)
    mesh = mesh_sim_icosphere()
    mirror = np.array([1.0, -1.0, 1.0])
    scene = replace(build_scene(scenario1), objects=(mesh,))
    mirrored = replace(scene, objects=(
        TriangleMesh(vertices=mesh.vertices * mirror, faces=mesh.faces),))
    sonar = replace(scenario1.sonar, num_rays=20000)
    ahead = mesh.vertices.mean(axis=0) - np.array([0.0, 0.0, 7.0])
    ahead /= np.linalg.norm(ahead)
    draw = raysim.sample_ray_directions

    def aimed(n, rng):
        dirs = ahead + 0.1 * draw(n, rng)
        return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)

    def beam(yaw_deg):
        return BeamOrientation(pitch_rad=math.radians(10.0),
                               yaw_rad=math.radians(yaw_deg), name="b")

    monkeypatch.setattr(raysim, "sample_ray_directions", aimed)
    port = ping_beam(scene, replace(sonar, transmitter=beam(-20.0)),
                     scenario1.pose, beam(-20.0), seed=12)
    monkeypatch.setattr(raysim, "sample_ray_directions",
                        lambda n, rng: aimed(n, rng) * mirror)
    starboard = ping_beam(mirrored, replace(sonar, transmitter=beam(20.0)),
                          scenario1.pose, beam(20.0), seed=12)
    for name in COMPONENTS:
        np.testing.assert_array_equal(getattr(starboard, name),
                                      getattr(port, name), err_msg=name)
    assert np.count_nonzero(port.object_) >= 3
    assert np.count_nonzero(port.bottom) > 10


# --- the step mesh against the plain lockstep walk of its grid ------------------


@dataclass(frozen=True)
class Grid:
    """A heightfield for lockstep_heightfield: depths[i, j] below the
    surface at (x0 + i*spacing_m, y0 + j*spacing_m), bilinear between nodes
    and continued unchanged beyond the grid."""

    x0: float
    y0: float
    spacing_m: float
    depths: np.ndarray


def lockstep_heightfield(hf, origins, dirs, t_min, t_max):
    """First hit of a Grid by stepping every ray through every cell wall
    from t_min, the walls beyond the grid included, and solving each cell's
    bilinear patch: the reference for the step bottom's mesh. (t, normals)
    like the mesh kernel, the normals facing up."""
    n = origins.shape[0]
    t_hit = np.full(n, np.inf)
    normals = np.zeros((n, 3))
    s = hf.spacing_m
    nx, ny = hf.depths.shape
    d = hf.depths

    ox, oy, oz = origins[:, 0], origins[:, 1], origins[:, 2]
    dx, dy, dz = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    t_stop = np.broadcast_to(np.asarray(t_max, dtype=float), (n,)).copy()

    # Rays above the shallowest terrain and not heading down can never hit.
    active = ~((dz <= 0.0) & (oz < d.min()))
    active &= t_stop > t_min
    if not np.any(active):
        return t_hit, normals

    t_cur = np.full(n, t_min)
    x = ox + t_cur * dx
    y = oy + t_cur * dy
    ix = np.floor((x - hf.x0) / s).astype(np.int64)
    iy = np.floor((y - hf.y0) / s).astype(np.int64)

    with np.errstate(divide="ignore"):
        step_tx = np.abs(s / dx)
        step_ty = np.abs(s / dy)
    # Parameter of the next x and y grid-plane crossing for each ray.
    tx_next = np.full(n, np.inf)
    ty_next = np.full(n, np.inf)
    pos_x = dx > 0
    neg_x = dx < 0
    tx_next[pos_x] = (hf.x0 + (ix[pos_x] + 1) * s - ox[pos_x]) / dx[pos_x]
    tx_next[neg_x] = (hf.x0 + ix[neg_x] * s - ox[neg_x]) / dx[neg_x]
    pos_y = dy > 0
    neg_y = dy < 0
    ty_next[pos_y] = (hf.y0 + (iy[pos_y] + 1) * s - oy[pos_y]) / dy[pos_y]
    ty_next[neg_y] = (hf.y0 + iy[neg_y] * s - oy[neg_y]) / dy[neg_y]

    # Over a parameter length L a ray crosses at most ceil(L |dx| / s) + 1 x
    # walls and as many y walls; each step crosses a wall or ends the ray.
    # The constant covers those +1s, the last step and rounding.
    crossings = np.ceil((t_stop - t_min) * (np.abs(dx) + np.abs(dy)) / s)
    max_steps = int(crossings[active].max()) + 8
    for _ in range(max_steps):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        t0 = t_cur[idx]
        t1 = np.minimum(np.minimum(tx_next[idx], ty_next[idx]), t_stop[idx])

        cix = ix[idx]
        ciy = iy[idx]
        out_lo_x = cix < 0
        out_hi_x = cix > nx - 2
        out_lo_y = ciy < 0
        out_hi_y = ciy > ny - 2
        icx = np.clip(cix, 0, nx - 2)
        icy = np.clip(ciy, 0, ny - 2)
        z00 = d[icx, icy]
        z10 = d[icx + 1, icy]
        z01 = d[icx, icy + 1]
        z11 = d[icx + 1, icy + 1]
        ca = z10 - z00
        cb = z01 - z00
        cg = z11 - z10 - z01 + z00

        # Local cell coordinates as affine functions of the ray parameter,
        # flattened outside the grid so the edge values continue.
        u0 = (ox[idx] - (hf.x0 + icx * s)) / s
        du = dx[idx] / s
        u0 = np.where(out_lo_x, 0.0, np.where(out_hi_x, 1.0, u0))
        du = np.where(out_lo_x | out_hi_x, 0.0, du)
        v0 = (oy[idx] - (hf.y0 + icy * s)) / s
        dv = dy[idx] / s
        v0 = np.where(out_lo_y, 0.0, np.where(out_hi_y, 1.0, v0))
        dv = np.where(out_lo_y | out_hi_y, 0.0, dv)

        qa = -cg * du * dv
        qb = dz[idx] - (ca * du + cb * dv + cg * (u0 * dv + v0 * du))
        qc = oz[idx] - (z00 + ca * u0 + cb * v0 + cg * u0 * v0)

        root = np.full(idx.size, np.inf)
        quad = np.abs(qa) > 1e-300
        if np.any(quad):
            disc = qb[quad] ** 2 - 4.0 * qa[quad] * qc[quad]
            has = disc >= 0.0
            if np.any(has):
                sq = np.sqrt(disc[has])
                a_h = qa[quad][has]
                b_h = qb[quad][has]
                c_h = qc[quad][has]
                q = -0.5 * (b_h + np.sign(b_h) * sq)
                q = np.where(q == 0.0, -0.5 * sq, q)
                with np.errstate(divide="ignore", invalid="ignore"):
                    r1 = np.where(q != 0.0, c_h / q, np.inf)
                    r2 = np.where(a_h != 0.0, q / a_h, np.inf)
                lo = np.minimum(r1, r2)
                hi = np.maximum(r1, r2)
                t0q = t0[quad][has]
                t1q = t1[quad][has]
                pick = np.where(
                    (lo >= t0q) & (lo <= t1q),
                    lo,
                    np.where((hi >= t0q) & (hi <= t1q), hi, np.inf),
                )
                tmp = np.full(np.count_nonzero(quad), np.inf)
                tmp[has] = pick
                root[quad] = tmp
        lin = ~quad & (np.abs(qb) > 1e-300)
        if np.any(lin):
            cand = -qc[lin] / qb[lin]
            ok = (cand >= t0[lin]) & (cand <= t1[lin])
            root[lin] = np.where(ok, cand, np.inf)

        hit = np.isfinite(root)
        if np.any(hit):
            gi = idx[hit]
            th = root[hit]
            t_hit[gi] = th
            uh = np.clip(u0[hit] + du[hit] * th, 0.0, 1.0)
            vh = np.clip(v0[hit] + dv[hit] * th, 0.0, 1.0)
            gx = np.where(
                out_lo_x[hit] | out_hi_x[hit], 0.0, (ca[hit] + cg[hit] * vh) / s
            )
            gy = np.where(
                out_lo_y[hit] | out_hi_y[hit], 0.0, (cb[hit] + cg[hit] * uh) / s
            )
            nvec = np.stack([gx, gy, -np.ones_like(gx)], axis=-1)
            normals[gi] = nvec / np.linalg.norm(nvec, axis=-1, keepdims=True)
            active[gi] = False

        # Advance the remaining rays into the next cell.
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        t1 = np.minimum(np.minimum(tx_next[idx], ty_next[idx]), t_stop[idx])
        done = t1 >= t_stop[idx] - 0.0
        adv_x = tx_next[idx] <= t1
        adv_y = ty_next[idx] <= t1
        gi = idx
        t_cur[gi] = t1
        sub = gi[adv_x]
        ix[sub] += np.sign(dx[sub]).astype(np.int64)
        tx_next[sub] += step_tx[sub]
        sub = gi[adv_y]
        iy[sub] += np.sign(dy[sub]).astype(np.int64)
        ty_next[sub] += step_ty[sub]
        active[gi[done]] = False
    if np.any(active):
        raise RuntimeError(
            f"heightfield trace: {np.count_nonzero(active)} rays still active "
            f"after {max_steps} cell steps"
        )
    return t_hit, normals


def random_step(rng):
    """A step bottom's parameters at random, as a scenario's bottom spec and
    a base depth: base 4-14 m, a rise of either sign, and a distance within
    20 m of the sonar, a multiple of STEP_RAMP_M in a third of the cases."""
    base = rng.uniform(4.0, 14.0)
    rise = rng.uniform(-4.0, base - 1.0)
    distance = rng.uniform(-20.0, 20.0)
    if rng.random() < 0.3:
        distance = STEP_RAMP_M * round(distance / STEP_RAMP_M)
    return {"type": "step", "distance_m": distance, "rise_m": rise}, base


def step_grid(rng, spec, base):
    """A grid of spacing STEP_RAMP_M along which the step's floor is linear:
    two columns of nodes, 1-40 of them deep up to a node at distance_m, the
    next 1-40 shallow."""
    deep = int(rng.integers(1, 41))
    num = deep + int(rng.integers(1, 41))
    x0 = spec["distance_m"] - STEP_RAMP_M * (deep - 1)
    depths = np.where(np.arange(num) < deep, base, base - spec["rise_m"])
    return Grid(x0=x0, y0=0.0, spacing_m=STEP_RAMP_M,
                depths=np.tile(depths[:, None], (1, 2)))


def step_probe_rays(rng, grid):
    """Rays that start in the water, where a ping's rays start (at the
    sonar, or at a bounce point offset into the water): above the terrain,
    over the grid and up to 5 m off either end of it. Half are aimed at a
    point of the terrain about the rise, a share of the directions has one
    or two components that are exactly 0, and some level rays pass just
    above or below a plateau."""
    n = 600
    xs = grid.x0 + grid.spacing_m * np.arange(grid.depths.shape[0])
    column = grid.depths[:, 0]
    x = rng.uniform(xs[0] - 5.0, xs[-1] + 5.0, n)
    y = rng.uniform(-10.0, 10.0, n)
    floor = np.interp(x, xs, column)
    z = rng.uniform(0.0, 1.0, n) * floor
    origins = np.stack([x, y, z], axis=1)
    dirs = sample_ray_directions(n, rng)
    rise = np.nonzero(np.diff(column))[0]
    at = xs[rise[0]] if rise.size else 0.0
    tx = rng.uniform(at - 2.0 * grid.spacing_m, at + 3.0 * grid.spacing_m, n)
    targets = np.stack([tx, rng.uniform(-10.0, 10.0, n),
                        np.interp(tx, xs, column)], axis=1)
    aim = rng.random(n) < 0.5
    dirs[aim] = targets[aim] - origins[aim]
    for share in (0.2, 0.1):
        some = rng.random(n) < share
        dirs[some, rng.integers(0, 3, int(some.sum()))] = 0.0
    level = rng.random(n) < 0.05
    plateau = column[rng.choice([0, -1], int(level.sum()))]
    gap = 10.0 ** rng.uniform(-9.0, -3.0, int(level.sum()))
    origins[level, 2] = plateau + np.where(rng.random(gap.size) < 0.5, gap, -gap)
    dirs[level, 2] = 0.0
    # a level ray below a plateau starts in the ground where that plateau
    # runs under it; keep it only where the ground is deeper
    keep = np.linalg.norm(dirs, axis=1) > 0.0
    keep &= origins[:, 2] < np.interp(origins[:, 0], xs, column)
    return origins[keep], dirs[keep] / np.linalg.norm(dirs[keep], axis=1)[:, None]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("t_min", [0.0, BOUNCE_MIN_T])
def test_heightfield_kernel_reproduces_lockstep_walk(scenario1, monkeypatch,
                                                     seed, t_min):
    """The step is traced as its 6-face mesh. On random steps, _trace_batch
    must find the hits the lockstep walk finds on a grid that holds the same
    floor: the same kind, and t and normals to rtol 1e-12 on the hits."""
    rng = np.random.default_rng(seed)
    for _ in range(2):
        spec, base = random_step(rng)
        grid = step_grid(rng, spec, base)
        origins, dirs = step_probe_rays(rng, grid)
        # per-ray range, a few of them shorter than t_min
        t_max = rng.uniform(0.0, 60.0, origins.shape[0])
        # the mesh reaches 1 m past end_m from x = y = 0, past every ray's end
        end_m = float(np.max(np.abs(origins[:, :2]).max(axis=1) + t_max))
        bottom = _bottom(spec, base, end_m)
        scene = Scene(env=scenario1.env, bottom=bottom, surface_enabled=False)
        kind, t, _, normals, _, _ = _trace_batch(scene, origins, dirs, t_min, t_max)
        with monkeypatch.context() as patch:
            reference = (lambda *args: lockstep_heightfield(grid, origins, dirs,
                                                            t_min, t_max))
            patch.setattr(raysim, "_trace_mesh", reference)
            kind_r, t_r, _, normals_r, _, _ = _trace_batch(
                scene, origins, dirs, t_min, t_max)
        assert np.count_nonzero(kind_r == KIND_BOTTOM) > 20
        np.testing.assert_array_equal(kind, kind_r)
        np.testing.assert_allclose(t, t_r, rtol=1e-12, atol=0.0)
        # past t_max only the mesh has looked, so a miss keeps its normal
        hit = kind >= 0
        np.testing.assert_allclose(normals[hit], normals_r[hit], rtol=1e-12,
                                   atol=0.0)


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
    # an array of bins gives the scalar shares, which tile the whole sphere
    n = np.arange(1, s1_layout.num_bins + 1)
    shares = ray_bin_volume(n, s1_layout, 20000)
    np.testing.assert_array_equal(
        shares, [ray_bin_volume(int(k), s1_layout, 20000) for k in n])
    assert shares.sum() == pytest.approx(
        4.0 / 3.0 * math.pi * s1_layout.end_m**3 / 20000, rel=1e-12)
    with pytest.raises(ValueError):
        ray_bin_volume(1, s1_layout, 0)


# --- whole pings ------------------------------------------------------------------


def test_ping_is_deterministic_for_a_seed(scenario1):
    scene = flat_scene(scenario1.env)
    sonar = replace(scenario1.sonar, num_rays=4000)
    a = ping_beam(scene, sonar, POSE, FORWARD, seed=42)
    b = ping_beam(scene, sonar, POSE, FORWARD, seed=42)
    for name in ("bottom", "surface", "object_", "volume", "multipath",
                 "noise"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    c = ping_beam(scene, sonar, POSE, FORWARD, seed=43)
    assert not np.array_equal(a.total, c.total)


def record_traces(monkeypatch):
    """Swap raysim._trace_batch for a wrapper that records the directions
    each call receives; returns the list they go to."""
    calls = []
    trace = raysim._trace_batch

    def recorded(*args):
        calls.append(np.array(args[2]))
        return trace(*args)

    monkeypatch.setattr(raysim, "_trace_batch", recorded)
    return calls


@pytest.mark.parametrize("case", ["scenario1", "empty", "scenario2"])
def test_a_ping_traces_exactly_twice(scenario1, scenario2, monkeypatch, case):
    """A ping of at most one chunk (raysim.PING_CHUNK_RAYS) makes one trace
    of the rays and one retrace of their bounces, even in a scene with
    nothing to hit, and however many beams it forms: scenario2 has three.
    perfbench's traced runs name the primary and multipath spans by these
    two calls. Every 20k-ray workload is one chunk."""
    sc = scenario2 if case == "scenario2" else scenario1
    scene = (Scene(env=sc.env, bottom=None, surface_enabled=False)
             if case == "empty" else build_scene(sc))
    calls = record_traces(monkeypatch)
    ping(scene, sc.sonar, sc.pose, seed=1)
    assert len(calls) == 2


@pytest.mark.parametrize("num_beams", [1, 3])
def test_impact_terms_are_worked_out_once_per_chunk(scenario2, monkeypatch,
                                                    num_beams):
    """Only the receive gains depend on the beam: each chunk works out the
    backscatter of its direct hits and of its bounces once, for every beam
    of the ping. A 20k-ray ping in chunks of 4000 rays is 5 chunks."""
    monkeypatch.setattr(raysim, "PING_CHUNK_RAYS", 4000)
    calls = []
    coeff = raysim._boundary_coeff_linear

    def counted(*args):
        calls.append(len(args[0]))
        return coeff(*args)

    monkeypatch.setattr(raysim, "_boundary_coeff_linear", counted)
    sonar = replace(scenario2.sonar, num_rays=20000,
                    beams=scenario2.sonar.beams[:num_beams])
    ping(build_scene(scenario2), sonar, scenario2.pose, seed=1)
    assert len(calls) == 2 * 5
    assert min(calls) > 0


@pytest.mark.parametrize("n_rays", [1, 20000])
def test_a_ping_traces_no_unlit_ray(scenario1, monkeypatch, n_rays):
    """Every ray here points into the level transmitter's rear hemisphere
    (x <= 0), where its gain is exactly 0. Such a ping is all zeros, and
    both of its traces still run, on 0 rays: one ray or a whole chunk."""
    calls = record_traces(monkeypatch)
    draw = raysim.sample_ray_directions

    def rear(n, rng):
        d = draw(n, rng)
        d[:, 0] = -np.abs(d[:, 0])
        return d

    monkeypatch.setattr(raysim, "sample_ray_directions", rear)
    sonar = replace(scenario1.sonar, num_rays=n_rays)
    pr = ping_beam(build_scene(scenario1), sonar, POSE, FORWARD,
                   seed=4)
    for name in COMPONENTS:
        assert not np.any(getattr(pr, name)), name
    assert [len(d) for d in calls] == [0, 0]


def test_beam_gains_take_each_distinct_factor_once(scenario1, monkeypatch):
    """_beam_gains takes one aperture factor per distinct beam-frame row:
    for a level transmitter, the same beam as a receiver, level beams
    yawed +-15 deg, and a beam pitched 20 deg at yaw 0 and at yaw 10 deg,
    4 horizontal factors (yaw 0 shares one) and 3 vertical ones (pitch 0
    shares one), not 2 for each of the 6 orientations; and each gain row
    is the one of a call with that orientation alone, bit for bit."""
    calls = []
    factor = raysim.aperture_factor

    def counting(cosine, length_m, sonar, c):
        calls.append(length_m)
        return factor(cosine, length_m, sonar, c)

    monkeypatch.setattr(raysim, "aperture_factor", counting)
    sonar, c = scenario1.sonar, scenario1.env.sound_speed()
    down, y10, y15 = (math.radians(a) for a in (20.0, 10.0, 15.0))
    orientations = [(0.0, 0.0), (0.0, 0.0), (0.0, y15), (0.0, -y15),
                    (down, 0.0), (down, y10)]
    d = sample_ray_directions(5000, np.random.default_rng(2))
    gains = raysim._beam_gains(d, orientations, sonar, c)
    assert sorted(calls) == sorted([sonar.horizontal_len_m] * 4
                                   + [sonar.vertical_len_m] * 3)
    for k, orientation in enumerate(orientations):
        np.testing.assert_array_equal(
            gains[k], raysim._beam_gains(d, [orientation], sonar, c)[0])


def test_a_ping_traces_exactly_its_lit_rays(scenario2, monkeypatch):
    """scenario2's down20 beam with a transmitter pitched -30 deg and yawed
    15 deg: its receive and transmit weights differ, and the lit set is not
    a half-space of the world. The first trace gets the redrawn directions
    whose transmit gain is > 0, in draw order, and no other."""
    calls = record_traces(monkeypatch)
    pose, beam = scenario2.pose, scenario2.sonar.beams[1]
    assert beam.name == "down20"
    tx = BeamOrientation(pitch_rad=math.radians(-30.0),
                         yaw_rad=math.radians(15.0), name="tx")
    sonar = replace(scenario2.sonar, num_rays=20000, transmitter=tx)
    seed = 31
    ping_beam(build_scene(scenario2), sonar, pose, beam, seed=seed)

    c = scenario2.env.sound_speed()
    d = sample_ray_directions(sonar.num_rays, np.random.default_rng(seed))

    def bp_t(v):
        vb = rotate_to_sonar_frame(v, pose.pitch_rad + tx.pitch_rad, tx.yaw_rad)
        return beam_gain(vb, sonar, c)

    lit = bp_t(d) > 0.0
    assert 0 < lit.sum() < sonar.num_rays
    traced = calls[0]
    assert len(traced) == lit.sum()
    assert np.all(bp_t(traced) > 0.0)
    np.testing.assert_array_equal(traced, d[lit])


@pytest.mark.parametrize("case", ["flat", "step_pitched", "mesh"])
def test_a_ping_does_not_depend_on_how_its_rays_are_chunked(
        scenario1, scenario2, monkeypatch, case):
    """A 20k-ray ping is one chunk. In chunks of 4999 rays, which do not
    divide the ray count, every component must come out bit for bit the
    same: on a flat bottom, on the step with a pitched receive beam (its
    receive and transmit weights differ) and with a mesh obstacle. Each
    chunk draws its own directions, so this also covers the per-chunk draw:
    the chunks' draws must be the one draw of a single chunk."""
    sc, beam = scenario1, FORWARD
    if case == "step_pitched":
        sc, beam = scenario2, scenario2.sonar.beams[1]
        assert beam.pitch_rad != sc.sonar.transmitter.pitch_rad
    scene = build_scene(sc)
    if case == "mesh":
        box = box_mesh((15.0, 0.0, 10.0), (2.0, 2.0, 2.0))
        scene = replace(scene, objects=(box,))
    sonar = replace(sc.sonar, num_rays=20000)
    assert raysim.PING_CHUNK_RAYS >= sonar.num_rays
    whole = ping_beam(scene, sonar, sc.pose, beam, seed=3)
    monkeypatch.setattr(raysim, "PING_CHUNK_RAYS", 4999)
    chunked = ping_beam(scene, sonar, sc.pose, beam, seed=3)
    for name in COMPONENTS:
        np.testing.assert_array_equal(getattr(chunked, name), getattr(whole, name),
                                      err_msg=name)
    assert np.any(whole.multipath > 0.0)
    assert np.any(whole.object_ > 0.0) == (case == "mesh")


@pytest.mark.parametrize("case, seeds, num_rays", [
    ("step", (1, 2), 20000),
    ("icosphere", (1, 2), 20000),
    ("yawed", (1, 2), 20000),
    ("step", (3,), raysim.PING_CHUNK_RAYS + 4001),
    ("sharing", (4,), 20000),
], ids=["step", "icosphere", "yawed", "step_chunks", "sharing"])
def test_every_row_is_the_one_beam_ping_of_its_beam(scenario1, scenario2, case,
                                                    seeds, num_rays):
    """A ping traces one transmission and weighs it per receive beam. Row k
    of every component must equal, bit for bit, the ping of a sonar with
    sonar.beams[k] alone from the same seed: scenario2's three beams over
    the step mesh, the same beams over scenario1 with the mesh_sim
    icosphere, and a receive beam yawed 10 deg beside a level one; once over
    more rays than one chunk (raysim.PING_CHUNK_RAYS). The sharing case
    takes every path by which beams share gain factors: forward, the
    transmitter itself; level beams yawed +-15 deg (the vertical factor);
    down20 at yaw 0 (the horizontal one) and down20 yawed 10 deg (none)."""
    sc, beams = scenario2, scenario2.sonar.beams
    if case != "step":
        sc = scenario1
    scene = build_scene(sc)
    if case == "icosphere":
        scene = replace(scene, objects=(mesh_sim_icosphere(),))
    if case == "yawed":
        beams = (FORWARD, BeamOrientation(yaw_rad=math.radians(10.0), name="y10"))
    if case == "sharing":
        down = math.radians(20.0)
        beams = (FORWARD,
                 BeamOrientation(yaw_rad=math.radians(15.0), name="y15"),
                 BeamOrientation(yaw_rad=math.radians(-15.0), name="y-15"),
                 BeamOrientation(pitch_rad=down, name="down20"),
                 BeamOrientation(pitch_rad=down, yaw_rad=math.radians(10.0),
                                 name="down20_y10"))
    sonar = replace(sc.sonar, beams=beams, num_rays=num_rays)
    for seed in seeds:
        stacked = ping(scene, sonar, sc.pose, seed=seed)
        assert stacked.bottom.shape == (len(beams), stacked.layout.num_bins)
        for k, beam in enumerate(beams):
            alone = ping_beam(scene, sonar, sc.pose, beam, seed=seed)
            for name in COMPONENTS + ("noise",):
                assert np.array_equal(getattr(stacked.row(k), name),
                                      getattr(alone, name)), (seed, beam.name, name)
            assert np.count_nonzero(alone.multipath) > 10, beam.name
        if case == "icosphere":
            assert np.count_nonzero(stacked.object_) > 0


@pytest.mark.parametrize("a, b", [(1, 2), (4999, 15001), (65536, 7)])
def test_consecutive_normal_draws_are_one_draw(a, b):
    """ping draws each chunk's directions as it comes to it. That matches a
    single draw of every ray only while numpy's Generator fills a
    standard_normal array in sequence, leaving the generator where one draw
    of a + b rows would."""
    split, whole = np.random.default_rng(8), np.random.default_rng(8)
    first, second = split.standard_normal((a, 3)), split.standard_normal((b, 3))
    same = (np.array_equal(np.vstack([first, second]),
                           whole.standard_normal((a + b, 3)))
            and split.standard_normal(4).tolist()
            == whole.standard_normal(4).tolist())
    assert same, ("a numpy change moved the Generator's fill order: pings of "
                  "more than one chunk (raysim.PING_CHUNK_RAYS) will no "
                  "longer match the same pings run as one chunk")


def test_ping_memory_does_not_grow_with_the_ray_count(scenario1):
    """Every per-ray array of a ping, its directions included, is drawn or
    made per chunk of raysim.PING_CHUNK_RAYS rays and lives for that chunk
    only. numpy reports its buffers to tracemalloc, so the traced peak of a
    ping may grow by at most 4 bytes per extra ray. Drawing every direction
    up front grows it by about 15, and holding every per-ray array at once
    by hundreds."""
    scene = build_scene(scenario1)

    def peak_bytes(n_rays):
        sonar = replace(scenario1.sonar, num_rays=n_rays)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ping_beam(scene, sonar, scenario1.pose, FORWARD,
                      seed=1)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    small, large = peak_bytes(200_000), peak_bytes(400_000)
    assert (large - small) / 200_000 <= 4.0


@pytest.mark.parametrize("yaw_deg", [10.0, 37.0])
def test_a_yawed_ping_is_the_level_ping_turned(scenario1, monkeypatch, yaw_deg):
    """Metamorphic check of the frame conventions (beam_orientations,
    rotate_to_sonar_frame): scenario1 is symmetric about the vertical
    through the sonar, so turning the transmitter, the receiver and every
    ray direction by one yaw reproduces the level ping. Small chunks run the
    chunk loop too."""
    monkeypatch.setattr(raysim, "PING_CHUNK_RAYS", 4999)
    scene = build_scene(scenario1)
    sonar = replace(scenario1.sonar, num_rays=20000)
    level = ping_beam(scene, sonar, scenario1.pose, FORWARD, seed=11)
    yaw = math.radians(yaw_deg)
    turn = rotation_matrix_yaw(yaw)
    draw = raysim.sample_ray_directions
    monkeypatch.setattr(raysim, "sample_ray_directions",
                        lambda n, rng: draw(n, rng) @ turn.T)
    beam = BeamOrientation(yaw_rad=yaw, name="turned")
    turned = ping_beam(scene, replace(sonar, transmitter=beam), scenario1.pose, beam,
                       seed=11)
    for name in COMPONENTS:
        np.testing.assert_allclose(getattr(turned, name), getattr(level, name),
                                   rtol=1e-12, atol=0.0, err_msg=name)
    assert np.count_nonzero(level.multipath) > 50


def test_a_mirrored_ping_is_bit_identical(scenario2, monkeypatch):
    """Metamorphic check: scenario2's step varies along x only, so the scene
    is its own mirror image in y. A beam pitched 10 deg and yawed +20 deg,
    with every ray direction mirrored y -> -y, must give the ping of the
    beam yawed -20 deg bit for bit. Small chunks run the chunk loop too."""
    monkeypatch.setattr(raysim, "PING_CHUNK_RAYS", 4999)
    scene = build_scene(scenario2)
    sonar = replace(scenario2.sonar, num_rays=20000)

    def beam(yaw_deg):
        return BeamOrientation(pitch_rad=math.radians(10.0),
                               yaw_rad=math.radians(yaw_deg), name="b")

    port = ping_beam(scene, replace(sonar, transmitter=beam(-20.0)),
                     scenario2.pose, beam(-20.0), seed=12)
    draw = raysim.sample_ray_directions
    monkeypatch.setattr(raysim, "sample_ray_directions",
                        lambda n, rng: draw(n, rng) * np.array([1.0, -1.0, 1.0]))
    starboard = ping_beam(scene, replace(sonar, transmitter=beam(20.0)),
                          scenario2.pose, beam(20.0), seed=12)
    for name in COMPONENTS:
        np.testing.assert_array_equal(getattr(starboard, name),
                                      getattr(port, name), err_msg=name)
    assert np.count_nonzero(port.bottom) > 50


def test_a_source_level_shift_moves_every_bin_by_as_many_db(scenario1,
                                                           scenario2):
    """Metamorphic check: every term of a ping scales with the source level.
    Raising it by 17.5 dB keeps each component's zero bins and moves every
    other bin by 17.5 dB, on scenario1 and on each of scenario2's beams."""
    shift_db = 17.5
    for tag, sc in (("scenario1", scenario1), ("scenario2", scenario2)):
        scene = build_scene(sc)
        for beam in sc.sonar.beams:
            lo, hi = (
                ping_beam(scene, replace(sc.sonar, source_level_db=level), sc.pose,
                          beam, seed=5)
                for level in (0.0, shift_db))
            for name in COMPONENTS:
                a, b = getattr(lo, name), getattr(hi, name)
                where = f"{tag} {beam.name} {name}"
                assert np.array_equal(a > 0.0, b > 0.0), where
                np.testing.assert_allclose(to_db(b[a > 0.0]) - to_db(a[a > 0.0]),
                                           shift_db, rtol=0.0, atol=1e-9,
                                           err_msg=where)
            assert np.count_nonzero(lo.bottom) > 50


def test_ping_components_and_layout(scenario1, s1_layout):
    scene = flat_scene(scenario1.env)
    sonar = replace(scenario1.sonar, num_rays=4000)
    pr = ping_beam(scene, sonar, POSE, FORWARD, seed=7)
    assert pr.layout.num_bins == s1_layout.num_bins
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
    assert np.all(to_db(pr.object_) == NO_RESPONSE)
    np.testing.assert_allclose(pr.bin_centers, s1_layout.centers)


def test_a_flat_bottom_at_or_above_the_sonar_is_rejected(scenario1):
    """A floor above the sonar would return nothing, silently."""
    for depth in (3.0, POSE.depth_m):
        with pytest.raises(ValueError, match=f"{depth} m lies at or above"):
            ping_beam(Scene(env=scenario1.env, bottom=FlatBottom(depth)),
                      scenario1.sonar, POSE, FORWARD, seed=1)


def test_obstacle_adds_energy_at_its_bin(scenario1):
    scene = flat_scene(scenario1.env)
    box = box_mesh((10.0, 0.0, 6.0), (2.0, 2.0, 2.0), ObjectMaterial())
    with_box = flat_scene(scenario1.env, objects=(box,))
    empty = ping_beam(scene, scenario1.sonar, POSE, FORWARD,
                      seed=999)
    loaded = ping_beam(with_box, scenario1.sonar, POSE, FORWARD,
                       seed=999)
    assert loaded.object_.sum() > 0.0
    spike = int(np.argmax(loaded.object_))
    # the echo concentrates near the front face, nine-plus meters out
    assert 36 <= spike + 1 <= 46
    assert loaded.total[spike] >= empty.total[spike]


def test_mean_ping_converges_toward_expectation(scenario1, s1_layout):
    """More rays per ping bring the multi-ping mean closer to the analytic
    expectation over the well-populated bins."""
    scene = flat_scene(scenario1.env)
    null = expected_null(scene, scenario1.sonar, POSE, FORWARD)
    eligible = (to_db(null.total) >= -120.0) & (s1_layout.centers <= 20.0)
    assert int(eligible.sum()) >= 60

    def rms_gap(n_rays, seed0):
        sonar = replace(scenario1.sonar, num_rays=n_rays)
        acc = np.zeros(s1_layout.num_bins)
        for k in range(4):
            acc += ping_beam(scene, sonar, POSE, FORWARD, seed=seed0 + k).total
        gap = to_db(acc[eligible] / 4.0) - to_db(null.total)[eligible]
        return float(np.sqrt(np.mean(gap * gap)))

    coarse = rms_gap(5000, 9005)
    medium = rms_gap(10000, 9010)
    fine = rms_gap(20000, 9020)
    assert fine < medium < coarse


def test_an_impact_next_to_the_sonar_lands_in_the_first_bin(scenario1):
    # Most downward rays meet a plate 1e-11 m below the sonar within 1e-9 bin
    # lengths; their echo belongs to bin 1 and must not wrap to the last bin.
    z = POSE.depth_m + 1e-11
    plate = TriangleMesh(
        vertices=[(-1.0, -1.0, z), (1.0, -1.0, z), (1.0, 1.0, z), (-1.0, 1.0, z)],
        faces=[(0, 1, 2), (0, 2, 3)])
    pr = ping_beam(flat_scene(scenario1.env, objects=(plate,)), scenario1.sonar,
                   POSE, FORWARD, seed=1)
    assert pr.object_[0] > 0.0
    assert pr.object_[-1] == 0.0


@pytest.mark.parametrize("receive_pitch_deg", [0.0, 20.0],
                         ids=["level", "receive_down20"])
def test_multipath_matches_image_source_expectation(scenario1, s1_layout,
                                                    receive_pitch_deg):
    """Image-source oracle (Allen & Berkley, JASA 1979) for a flat bottom
    plus the surface. Each ray of the ping, redrawn from its seed, goes to
    the plane it heads for, mirrors, and crosses the water column
    H = altitude + depth to the other plane; in closed form the legs are
    t1 = (altitude or depth) / |dz| and t2 = H / |dz|. Its echo is the
    second plane's coefficient at asin|dz|, the transmit gain at launch, the
    receive gain along the direct line from the second impact to the sonar,
    and the loss and patch at L = t1 + t2, binned at L."""
    env = scenario1.env
    sonar = replace(scenario1.sonar, num_rays=20000)
    c = env.sound_speed()
    f = sonar.frequency_khz
    receive = BeamOrientation(pitch_rad=math.radians(receive_pitch_deg))
    seed = 2024
    pr = ping_beam(flat_scene(env, volume_enabled=False), sonar, POSE, receive,
                   seed=seed)

    d = sample_ray_directions(sonar.num_rays, np.random.default_rng(seed))
    dz = np.abs(d[:, 2])
    down = d[:, 2] > 0.0
    t1 = np.where(down, POSE.altitude_m, POSE.depth_m) / dz
    t2 = (POSE.altitude_m + POSE.depth_m) / dz
    length = t1 + t2
    keep = length <= s1_layout.end_m
    d, dz, down, t1, t2, length = (
        a[keep] for a in (d, dz, down, t1, t2, length))
    grazing = np.arcsin(dz)
    coeff_db = np.where(down, surface_coeff(env.wind_knots, grazing, f),
                        bottom_coeff(env.bottom_type, grazing, f))
    sonar_at = np.array([0.0, 0.0, POSE.depth_m])
    second = sonar_at + t1[:, None] * d + t2[:, None] * d * [1.0, 1.0, -1.0]
    back = (second - sonar_at) / np.linalg.norm(second - sonar_at, axis=1,
                                                keepdims=True)

    def gain(v, beam):
        vb = rotate_to_sonar_frame(v, POSE.pitch_rad + beam.pitch_rad,
                                   beam.yaw_rad)
        return beam_gain(vb, sonar, c)

    value = (to_linear(sonar.source_level_db
                       - transmission_loss(length, absorption_coeff(f, env))
                       + coeff_db)
             * gain(d, FORWARD) * gain(back, receive)
             * ray_patch_area(length, grazing, sonar.num_rays))
    expected = np.zeros(s1_layout.num_bins)
    np.add.at(expected, bin_index(length, s1_layout) - 1, value)

    assert np.count_nonzero(expected) > 50
    np.testing.assert_array_equal(pr.multipath > 0.0, expected > 0.0)
    np.testing.assert_allclose(pr.multipath, expected, rtol=1e-8)
