"""Monte-Carlo ping simulation by ray tracing against a 3-D scene.

A ping launches a bundle of isotropically distributed rays from the sonar,
traces each to its first impact (sea floor, sea surface or an object),
accumulates per-bin reverberation and echo intensity weighted by the
transmit and receive beam patterns, adds volume reverberation along every
ray, and follows one specular bounce per ray for first-order multipath.

Every obstacle is a triangle mesh; a box is its 12-triangle mesh (box_mesh).
A bottom is a horizontal plane (FlatBottom) or a triangle mesh too: the
scenario's step is a 6-triangle mesh of three planar quads. One kernel
traces every mesh, _trace_mesh: a slab test against the mesh's bounding box
drops the rays that cannot reach it, and Moller-Trumbore over every face
finds the nearest hit of the rest. A bottom mesh's hits are KIND_BOTTOM and
scatter with the environment's bottom_type, not the mesh's material.

_trace_mesh works on per-axis columns: a ray-face term is a (faces, rays)
array, in blocks of MESH_BLOCK_PAIRS pairs that stay in cache. Its crosses do
np.cross's operations and its dots add as np.einsum, (a0*b0 + a2*b2) + a1*b1,
so its hits are bit-identical to einsum's. A ping's rays share one (1, 3)
origin, whose terms are (faces, 1) columns.

Every bounce goes through one batch path, _bounce: reflect the ray about the
hit normal and retrace from the impact point with the range left;
BOUNCE_MIN_T keeps it off its own surface. ping calls it on all its impacts.

Every impact, direct or bounced, becomes an echo through _echo: source
level, two-way loss and ensonified patch at the path length, the transmit
and receive gains, and the backscatter coefficient of the impact. A bounce
differs from a direct hit only in its path length, t1 + t2 instead of t,
and its receive weight, the gain of the direct line from the second impact
to the sonar instead of the launch direction. _echo and the volume term
share the one sonar-equation term of the null model too,
scatter.echo_intensity.

One ping is one transmission that forms every receive beam: row k of each
component belongs to sonar.beams[k] (PingReturn.row). Only the receive
gains depend on the beam. The draw, cull, trace and bounce are worked out
once, one _beam_gains call weighs every beam, each echo is one (beams,
impacts) expression, and each row adds in a one-beam ping's order: every
row is bit-identical to the ping of a sonar with that beam alone.

ping runs its whole body (direction draw, beam weights, trace, echoes,
bounce) over chunks of PING_CHUNK_RAYS rays, adding each chunk into the
per-bin accumulators. Nothing per ray outlives a chunk, so a ping's memory
does not grow with num_rays. The generator fills its normals in sequence,
so the chunks' draws are one draw of num_rays rows; the rays are
independent and np.add.at adds in ray order, so every bin sums the same
terms in the same order however the rays are split: the outputs do not
depend on the chunk size. A ping of at most one chunk, every 20k-ray ping,
calls _trace_batch exactly twice, also when no ray of the chunk is lit: the
trace and the bounce then run on 0 rays.

The transmitter is the sonar's, sonar.transmitter, for every receive beam.
ping traces only the rays the transmitter lights, bp_t > 0; about half the
rays of a level transmitter are unlit. That is exact. beam_gain is exactly
0 outside the open front hemisphere and at the sinc nulls, and an unlit
ray's direct echo and volume shells are weighed by bp_t * bp_r, its bounce
echo by bp_t * bp_r2. It would add +0.0 to accumulators that start at +0.0
and only get non-negative terms, which changes no bit. The cut is on bp_t,
not on bp_t * bp_r: a ray that the transmitter lights outside the receive
beam still feeds multipath, whose receive gain is taken along another
line. Every direction is still drawn, so the random streams do not move,
and each ray's patch and volume share still divide by num_rays.

All per-bin accumulators are linear intensities. Ambient noise is added
separately by add_noise so a simulated ping can be compared against the
analytic expectation with the noise term switched off.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .acoustics import (
    EnvironmentParams,
    SonarConfig,
    absorption_coeff,
    aperture_factor,
    noise_level_band,
)
from .db import to_db, to_linear
from .geometry import (
    BinLayout,
    SonarPose,
    beam_orientations,
    bin_index,
    layout_for,
    rotate_to_sonar_frame,
)
from .scatter import (ObjectMaterial, bottom_coeff, echo_intensity,
                      surface_coeff, volume_coeff)

# Hits more tangent than this are treated as misses; the scatter model is
# undefined at zero grazing.
MIN_GRAZING_RAD = 1e-9
# Minimum parameter of a bounce's retrace from its impact point, so it does
# not re-hit the surface it leaves: its own hit there has t about 0. (A plane
# it leaves is rejected anyway: the ray no longer heads toward it.)
BOUNCE_MIN_T = 1e-6
# Ray-face pairs per Moller-Trumbore block of _trace_mesh: a block's
# (faces, rays) arrays then stay in cache. A block holds at least one ray.
MESH_BLOCK_PAIRS = 32768
# Rays per pass of ping's body: the bound on every per-ray array of a ping.
PING_CHUNK_RAYS = 65536

KIND_BOTTOM = 0
KIND_SURFACE = 1
KIND_OBJECT = 2


@dataclass(frozen=True)
class FlatBottom:
    """Horizontal sea floor at a fixed depth below the surface."""

    depth_m: float

    def __post_init__(self):
        if not 0 < self.depth_m < math.inf:
            raise ValueError(f"depth_m must be finite and > 0, got {self.depth_m}")


@dataclass(frozen=True)
class TriangleMesh:
    """Triangle mesh with vertices (n, 3) and faces (m, 3): an obstacle, or
    the sea floor as a Scene's bottom, which ignores the material."""

    vertices: np.ndarray
    faces: np.ndarray
    material: ObjectMaterial = field(default_factory=ObjectMaterial)

    def __post_init__(self):
        vertices = np.asarray(self.vertices, dtype=float)
        try:
            faces = np.asarray(self.faces, dtype=int)
        except OverflowError:
            raise ValueError("faces index outside the vertex array") from None
        if vertices.ndim != 2 or vertices.shape[1] != 3 or vertices.shape[0] < 3:
            raise ValueError("vertices must be an (n, 3) array with n >= 3")
        if not np.all(np.isfinite(vertices)):
            raise ValueError("vertices must be finite")
        if faces.ndim != 2 or faces.shape[1] != 3 or faces.shape[0] < 1:
            raise ValueError("faces must be an (m, 3) array with m >= 1")
        if faces.min() < 0 or faces.max() >= vertices.shape[0]:
            raise ValueError("faces index outside the vertex array")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "faces", faces)


def box_mesh(center_m, size_m,
             material: ObjectMaterial = ObjectMaterial()) -> TriangleMesh:
    """The 12-triangle mesh of an axis-aligned box obstacle."""
    center = tuple(float(c) for c in center_m)
    size = tuple(float(s) for s in size_m)
    if len(center) != 3 or len(size) != 3:
        raise ValueError("center_m and size_m must have 3 components")
    if any(s <= 0 for s in size):
        raise ValueError(f"size_m components must be > 0, got {size}")
    corners = np.array(
        [[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5) for z in (-0.5, 0.5)]
    ) * np.array(size) + np.array(center)
    # corner index = 4 * (x side) + 2 * (y side) + (z side)
    faces = [
        (0, 1, 3), (0, 3, 2), (4, 6, 7), (4, 7, 5),  # x = lo, x = hi
        (0, 4, 5), (0, 5, 1), (2, 3, 7), (2, 7, 6),  # y = lo, y = hi
        (0, 2, 6), (0, 6, 4), (1, 5, 7), (1, 7, 3),  # z = lo, z = hi
    ]
    return TriangleMesh(vertices=corners, faces=np.array(faces),
                        material=material)


@dataclass(frozen=True)
class Scene:
    """Everything the rays interact with: water, boundaries and obstacles."""

    env: EnvironmentParams
    bottom: object = None
    surface_enabled: bool = True
    volume_enabled: bool = True
    objects: tuple = ()

    def __post_init__(self):
        if self.bottom is not None and not isinstance(
            self.bottom, (FlatBottom, TriangleMesh)
        ):
            raise ValueError("bottom must be FlatBottom, TriangleMesh or None")
        objects = tuple(self.objects)
        for obj in objects:
            if not isinstance(obj, TriangleMesh):
                raise ValueError("objects must be TriangleMesh instances")
        object.__setattr__(self, "objects", objects)


def _check_depth(scene: Scene, pose: SonarPose) -> None:
    """Raise ValueError unless the environment's depth, where sound speed is
    taken, is the pose's, from which the geometry is traced."""
    if not math.isclose(scene.env.depth_m, pose.depth_m, rel_tol=1e-9):
        raise ValueError(f"environment depth {scene.env.depth_m} m differs "
                         f"from the pose depth {pose.depth_m} m")


# ---------------------------------------------------------------------------
# Batch intersection kernels. Each returns (t, normals) with t = +inf where
# there is no hit beyond t_min; the plane kernel gives one normal for all.


def _trace_plane(origins, dirs, z, heading, t_min):
    """Crossing of the horizontal plane at depth z by the rays travelling
    toward it from the water: heading +1 (down) for the bottom, -1 (up) for
    the surface. The normal faces the water."""
    t = np.full(dirs.shape[0], np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        cand = (z - origins[:, 2]) / dirs[:, 2]
    ok = (heading * dirs[:, 2] > 0.0) & (cand > t_min)
    t[ok] = cand[ok]
    return t, (0.0, 0.0, -heading)


def _dot(a, b):
    """Dot product of 3-vectors given as their components, added as
    np.einsum adds on numpy 2.4 (a tier-1 test checks that they agree)."""
    return (a[0] * b[0] + a[2] * b[2]) + a[1] * b[1]


def _cross(a, b):
    """Cross product of 3-vectors given as their components, as np.cross."""
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _trace_mesh(mesh: TriangleMesh, origins, dirs, t_min):
    """Nearest face hit by Moller-Trumbore (JGT 1997) over every face, run in
    blocks of ray-face pairs on only the rays that meet the mesh's bounding
    box: a Kay-Kajiya slab test (SIGGRAPH 1986) culls the rest."""
    n = dirs.shape[0]
    t_best = np.full(n, np.inf)
    best_face = np.zeros(n, dtype=np.intp)
    # Rounding can put a Moller-Trumbore hit a little outside its face, by an
    # amount that grows with the coordinates, so the box is padded to match:
    # for each ray by its own origin, so no other ray of the batch moves it.
    ao = np.abs(origins)
    pad = 1e-6 * (1.0 + np.abs(mesh.vertices).max()
                  + np.maximum(np.maximum(ao[:, 0], ao[:, 1]), ao[:, 2]))
    # One slab per axis, on columns. A direction component of 0 gives a slab
    # an infinite entry and exit of the right signs, or nan for an origin on
    # the padded plane, which no face reaches: np.maximum and np.minimum
    # carry the nan, and every comparison below rejects it.
    t_near = np.full(n, -np.inf)
    t_far = np.full(n, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo, hi, o, dr in zip(mesh.vertices.min(axis=0),
                                 mesh.vertices.max(axis=0), origins.T, dirs.T):
            a = (lo - pad - o) / dr
            b = (hi + pad - o) / dr
            t_near = np.maximum(t_near, np.minimum(a, b))
            t_far = np.minimum(t_far, np.maximum(a, b))
        rays = np.nonzero((t_near <= t_far) & (t_far >= t_min))[0]

    # A face term is a (faces, 1) column and a ray term a 1-D array over the
    # block's rays, so numpy's inner loops run along the rays.
    v0 = mesh.vertices[mesh.faces[:, 0]]
    e1 = mesh.vertices[mesh.faces[:, 1]] - v0
    e2 = mesh.vertices[mesh.faces[:, 2]] - v0
    face_n = np.cross(e1, e2)
    num_faces = face_n.shape[0]
    v0, e1, e2 = (x.T[:, :, None] for x in (v0, e1, e2))
    step = max(1, MESH_BLOCK_PAIRS // num_faces)
    for start in range(0, rays.size, step):
        ri = rays[start:start + step]
        dr = [c[ri] for c in dirs.T]
        o = origins.T if origins.shape[0] == 1 else [c[ri] for c in origins.T]
        pvec = _cross(dr, e2)
        det = _dot(pvec, e1)
        tvec = [c - c0 for c, c0 in zip(o, v0)]
        qvec = _cross(tvec, e1)
        # det = 0, a ray parallel to the face, gives inf or nan, rejected below.
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_det = 1.0 / det
            u = _dot(tvec, pvec) * inv_det
            v = _dot(qvec, dr) * inv_det
            t = _dot(qvec, e2) * inv_det
            t = np.where((np.abs(det) > 1e-300) & (u >= 0.0) & (v >= 0.0)
                         & (u + v <= 1.0) & (t > t_min), t, np.inf)
        # The nearest hit, and the first face that gives it.
        t_best[ri] = t_ray = np.minimum.reduce(t, axis=0)
        best_face[ri] = np.minimum.reduce(
            np.where(t == t_ray, np.arange(num_faces)[:, None], num_faces), axis=0)

    # Orient each hit face's normal against the incoming ray.
    hit = np.nonzero(np.isfinite(t_best))[0]
    fn = [c[best_face[hit]] for c in face_n.T]
    sign = -np.sign(_dot(fn, [c[hit] for c in dirs.T]))
    sign = np.where(sign == 0.0, 1.0, sign)
    length = np.linalg.norm(face_n, axis=1)[best_face[hit]]
    normals = np.zeros((n, 3))
    for axis, c in enumerate(fn):
        normals[hit, axis] = c * sign / length
    return t_best, normals


def _trace_batch(scene: Scene, origins, dirs, t_min, t_max):
    """Nearest hit per ray. Returns (kind, t, points, normals, grazing,
    roughness) with kind = -1, t = inf and grazing 0 where the ray misses:
    it escapes, hits beyond t_max or grazes below MIN_GRAZING_RAD. origins
    is (n, 3), one per ray, or (1, 3), one shared by every ray."""
    n = dirs.shape[0]
    t_best = np.full(n, np.inf)
    kind = np.full(n, -1, dtype=np.int8)
    normals = np.zeros((n, 3))
    roughness = np.full(n, np.nan)

    def nearer(code, t_o, normal):
        better = t_o < t_best
        t_best[better] = t_o[better]
        kind[better] = code
        np.copyto(normals, normal, where=better[:, None])
        return better

    if scene.surface_enabled:
        nearer(KIND_SURFACE, *_trace_plane(origins, dirs, 0.0, -1.0, t_min))
    if isinstance(scene.bottom, FlatBottom):
        depth = scene.bottom.depth_m
        nearer(KIND_BOTTOM, *_trace_plane(origins, dirs, depth, 1.0, t_min))
    elif isinstance(scene.bottom, TriangleMesh):
        nearer(KIND_BOTTOM, *_trace_mesh(scene.bottom, origins, dirs, t_min))
    for obj in scene.objects:
        better = nearer(KIND_OBJECT, *_trace_mesh(obj, origins, dirs, t_min))
        roughness[better] = obj.material.rms_roughness

    # A ray that hit nothing keeps a zero normal, so its grazing angle is 0.
    cosines = np.abs(np.einsum("rc,rc->r", dirs, normals))
    grazing = np.arcsin(np.clip(cosines, 0.0, 1.0))
    miss = (t_best > t_max) | (grazing < MIN_GRAZING_RAD)
    kind[miss] = -1
    t_best[miss] = np.inf
    grazing[miss] = 0.0

    t_safe = np.where(np.isfinite(t_best), t_best, 0.0)
    points = origins + t_safe[:, None] * dirs
    return kind, t_best, points, normals, grazing, roughness


def _bounce(scene: Scene, points, dirs, normals, remaining):
    """Specular bounce of a batch of impacts: the reflected directions and
    the _trace_batch result of each from its impact point, with the range
    left (a miss where none is). dirs may be any nonzero vectors."""
    refl = dirs - 2.0 * np.einsum("rc,rc->r", dirs, normals)[:, None] * normals
    refl /= np.linalg.norm(refl, axis=1, keepdims=True)
    return refl, _trace_batch(scene, points, refl, BOUNCE_MIN_T, remaining)


# ---------------------------------------------------------------------------
# Sampling and per-ray measures


def sample_ray_directions(n: int, rng: np.random.Generator) -> np.ndarray:
    """n isotropically distributed unit vectors (normalized Gaussians). The
    norms are taken PING_CHUNK_RAYS rows at a time and the draw is divided
    in place, so the function holds 32 bytes a ray for the 24 it returns."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    dirs = rng.standard_normal((n, 3))
    norms = np.empty(n)
    for start in range(0, n, PING_CHUNK_RAYS):
        rows = slice(start, start + PING_CHUNK_RAYS)
        norms[rows] = np.linalg.norm(dirs[rows], axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        dirs[bad] = rng.standard_normal((int(bad.sum()), 3))
        norms[bad] = np.linalg.norm(dirs[bad], axis=1)
    dirs /= norms[:, None]
    return dirs


def ray_patch_area(distance_m, grazing_rad, n_rays: int):
    """Ensonified area represented by one ray hitting a boundary: its share
    of the full sphere projected onto the boundary at its impact
    distance and grazing angle. The grazing sine is floored at sin(1 deg) to
    keep tangent impacts from claiming unbounded patches."""
    if n_rays < 1:
        raise ValueError(f"n_rays must be >= 1, got {n_rays}")
    distance_m = np.asarray(distance_m, dtype=float)
    sin_g = np.maximum(np.sin(grazing_rad), math.sin(math.radians(1.0)))
    out = (4.0 * math.pi / n_rays) * distance_m**2 / sin_g
    return out if out.ndim else float(out)


def ray_bin_volume(n, layout: BinLayout, n_rays: int):
    """Share of bin n's shell volume represented by one ray; n may be an
    array of bin numbers."""
    if n_rays < 1:
        raise ValueError(f"n_rays must be >= 1, got {n_rays}")
    a = layout.edge(n - 1)
    b = layout.edge(n)
    return (4.0 / 3.0) * math.pi * (b**3 - a**3) / n_rays


# ---------------------------------------------------------------------------
# Ping assembly


@dataclass(frozen=True)
class PingReturn:
    """Per-bin linear intensities by component: a (beams, bins) array from
    ping, a (bins,) array in a row, one beam's ping or, from expected_null,
    its expectation."""

    layout: BinLayout
    bottom: np.ndarray
    surface: np.ndarray
    object_: np.ndarray
    volume: np.ndarray
    multipath: np.ndarray
    noise: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return (
            self.bottom
            + self.surface
            + self.object_
            + self.volume
            + self.multipath
            + self.noise
        )

    @property
    def total_db(self) -> np.ndarray:
        """The total in dB, as the benchmark's reference curves hold it."""
        return to_db(self.total)

    @property
    def bin_centers(self) -> np.ndarray:
        return self.layout.centers

    def row(self, k: int) -> PingReturn:
        """Row k, one beam's ping, of a ping of several beams."""
        return replace(self, **{name: getattr(self, name)[k] for name in (
            "bottom", "surface", "object_", "volume", "multipath", "noise")})


def _project(dirs, row):
    """dirs (n, 3) dotted with row elementwise, one order for any n."""
    return dirs[:, 0] * row[0] + dirs[:, 1] * row[1] + dirs[:, 2] * row[2]


def _beam_gains(dirs, orientations, sonar, c):
    """(orientations, rays) beam_gain at world unit vectors dirs, each beam
    frame's rows projected by _project (a BLAS product's sums can depend on
    the shape) and each distinct row's aperture factor taken once: beams at
    yaw 0 share the horizontal one, beams at pitch 0 the vertical one."""
    factor = functools.cache(lambda row, length_m: aperture_factor(
        _project(dirs, row), length_m, sonar, c))
    gains = np.empty((len(orientations), dirs.shape[0]))
    for k, orientation in enumerate(orientations):
        # The frame's rows, its axes in world coordinates, as cache keys.
        x, y, z = map(tuple, rotate_to_sonar_frame(np.eye(3), *orientation).T)
        amp = factor(y, sonar.horizontal_len_m) * factor(z, sonar.vertical_len_m)
        gains[k] = np.where(_project(dirs, x) > 0.0, amp * amp, 0.0)
    return gains


def _boundary_coeff_linear(kind, grazing, roughness, env, f_khz):
    """Per-hit backscatter factor in linear intensity, by impact kind. The
    surface has its own fit. The bottom and every object scatter like a
    rough seabed patch of their roughness class, env.bottom_type for the
    bottom."""
    out = np.zeros(kind.shape[0])
    surface = kind == KIND_SURFACE
    out[surface] = to_linear(surface_coeff(env.wind_knots, grazing[surface], f_khz))
    rough = np.where(kind == KIND_BOTTOM, env.bottom_type, roughness)
    for r in np.unique(rough[~surface]):
        sel = ~surface & (rough == r)
        out[sel] = to_linear(bottom_coeff(float(r), grazing[sel], f_khz))
    return out


def _echo(distance, kind, grazing, roughness, env, sonar, layout):
    """Sonar-equation echo of a batch of impacts at path length distance:
    the 0-based bin of each, and a function of a beam's gains that gives
    their linear intensities, the source level times the two-way loss, the
    gains (multiplied in the order given), the backscatter coefficient and
    the ray's ensonified patch."""
    f = sonar.frequency_khz
    terms = (sonar.source_level_db, distance, absorption_coeff(f, env),
             _boundary_coeff_linear(kind, grazing, roughness, env, f),
             ray_patch_area(distance, grazing, sonar.num_rays))
    return bin_index(distance, layout) - 1, lambda *gains: echo_intensity(
        *terms, *gains)


def ping(
    scene: Scene,
    sonar: SonarConfig,
    pose: SonarPose,
    *,
    seed: int | np.random.Generator | None = None,
) -> PingReturn:
    """Simulate one ping of every receive beam: draw sonar.num_rays rays over
    the full sphere, trace the ones sonar.transmitter lights (the others add
    nothing), and accumulate boundary, object, volume and first-order
    multipath intensity per beam and range bin; row k is sonar.beams[k]'s.
    seed goes to np.random.default_rng, so it may be an integer, a
    SeedSequence or a Generator, which is used as it is. A flat bottom at or
    above the sonar, or an environment depth other than the pose's, raises
    ValueError."""
    _check_depth(scene, pose)
    floor = scene.bottom
    if isinstance(floor, FlatBottom) and floor.depth_m <= pose.depth_m:
        raise ValueError(f"flat bottom at {floor.depth_m} m lies at or above "
                         f"the sonar at depth {pose.depth_m} m")
    rng = np.random.default_rng(seed)
    env = scene.env
    c = env.sound_speed()
    layout = layout_for(env, sonar)
    t_max = layout.end_m
    n_rays = sonar.num_rays
    num_bins = layout.num_bins

    origin = np.array([[0.0, 0.0, pose.depth_m]])
    pairs = [beam_orientations(pose, b, sonar.transmitter) for b in sonar.beams]
    receivers, tx = [rx for rx, _ in pairs], pairs[0][1]
    num_beams = len(receivers)

    # Per beam: direct echoes, one row per impact kind KIND_*, and multipath.
    tally = np.zeros((num_beams, 3, num_bins))
    multipath = np.zeros((num_beams, num_bins))
    # The volume term's beam weight summed by each ray's last ensonified
    # shell, numbered from 1 (num_bins for a ray that escapes).
    per_last = np.zeros((num_beams, num_bins + 1))

    def add_chunk(d):
        """Add the rays d to every beam; no per-ray array outlives it."""
        # Only lit rays go on, and no sinc is taken behind the transmitter
        # (np.compress picks rows faster than a mask does).
        tx_axis = rotate_to_sonar_frame(np.eye(3), *tx)[:, 0]
        d = np.compress(_project(d, tx_axis) > 0.0, d, axis=0)
        gains = _beam_gains(d, [tx, *receivers], sonar, c)
        lit = gains[0] > 0.0
        d, gains = np.compress(lit, d, axis=0), np.compress(lit, gains, axis=1)
        bp_t, w = gains[0], gains[0] * gains[1:]

        kind, t, points, normals, grazing, roughness = _trace_batch(
            scene, origin, d, 0.0, t_max
        )
        hit = kind >= 0
        kinds_h = kind[hit]
        bins, echo = _echo(t[hit], kinds_h, grazing[hit], roughness[hit],
                           env, sonar, layout)
        # Volume reverberation: every ray ensonifies each shell it crosses,
        # up to and including the shell of its impact.
        last_bin = np.full(d.shape[0], num_bins)
        last_bin[hit] = bins + 1

        # First-order multipath: one specular bounce per impacted ray,
        # received along the direct line from its second impact.
        idx = np.nonzero(hit)[0]
        _, (kind2, t2, points2, _, grazing2, roughness2) = _bounce(
            scene, points[idx], d[idx], normals[idx], t_max - t[idx]
        )
        hit2 = kind2 >= 0
        gi = idx[hit2]
        bins2, echo2 = _echo(t[gi] + t2[hit2], kind2[hit2], grazing2[hit2],
                             roughness2[hit2], env, sonar, layout)
        to_sonar = np.compress(hit2, points2, axis=0) - origin
        to_sonar /= np.linalg.norm(to_sonar, axis=1, keepdims=True)
        bp_r2 = _beam_gains(to_sonar, receivers, sonar, c)

        direct = echo(np.compress(hit, w, axis=1))
        bounced = echo2(bp_t[gi], bp_r2)
        for k in range(num_beams):
            np.add.at(tally[k], (kinds_h, bins), direct[k])
            np.add.at(per_last[k], last_bin, w[k])
            np.add.at(multipath[k], bins2, bounced[k])

    for start in range(0, n_rays, PING_CHUNK_RAYS):
        add_chunk(sample_ray_directions(min(PING_CHUNK_RAYS, n_rays - start),
                                        rng))

    volume = np.zeros_like(multipath)
    if scene.volume_enabled:
        reach = np.cumsum(per_last[:, 1:][:, ::-1], axis=1)[:, ::-1]
        f = sonar.frequency_khz
        volume = echo_intensity(
            sonar.source_level_db, layout.centers, absorption_coeff(f, env),
            to_linear(volume_coeff(env.particle_density_db, f)),
            ray_bin_volume(np.arange(1, num_bins + 1), layout, n_rays), reach)

    return PingReturn(
        layout=layout,
        bottom=tally[:, KIND_BOTTOM],
        surface=tally[:, KIND_SURFACE],
        object_=tally[:, KIND_OBJECT],
        volume=volume,
        multipath=multipath,
        noise=np.zeros_like(multipath),
    )


def add_noise(
    ping_return: PingReturn,
    sonar: SonarConfig,
    env: EnvironmentParams,
    *,
    seed: int | np.random.Generator | None = None,
    enabled: bool = True,
) -> PingReturn:
    """Add exponentially distributed ambient-noise power per bin, with mean
    set by the in-band ambient level, drawn from np.random.default_rng(seed)
    in the shape of the ping's arrays. Disabled returns the ping unchanged."""
    if not enabled:
        return ping_return
    rng = np.random.default_rng(seed)
    level = noise_level_band(sonar.frequency_khz, env, sonar.bandwidth_hz)
    mean = to_linear(level)
    noise = rng.exponential(mean, ping_return.noise.shape)
    return replace(ping_return, noise=noise)
