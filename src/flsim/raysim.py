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

Every bounce goes through one batch path, _bounce: reflect the ray about the
hit normal, offset the new origin along the reflection, and retrace with the
range left. ping calls it on all its impacts.

Every impact, direct or bounced, becomes an echo through one sonar-equation
term, _echo: source level, two-way loss and ensonified patch at the path
length, the transmit and receive gains, and the backscatter coefficient of
the impact. A bounce differs from a direct hit only in its path length,
t1 + t2 instead of t, and its receive weight, the gain of the direct line
from the second impact to the sonar instead of the launch direction.

ping draws all its ray directions up front, from one generator call, and
then runs its whole body (beam weights, trace, echoes, bounce) over chunks
of PING_CHUNK_RAYS rays, adding each chunk into the per-bin accumulators.
Every per-ray array but the directions (24 bytes a ray) lives for one
chunk, so beyond its directions a ping's memory does not grow with
num_rays. The rays are independent and np.add.at adds in ray order, so
every bin sums the same terms in the same order however the rays are split:
the outputs do not depend on the chunk size. A ping of at most one chunk,
every 20k-ray ping, calls _trace_batch exactly twice.

All per-bin accumulators are linear intensities; dB views are provided on
the result object. Ambient noise is added separately by add_noise so a
simulated ping can be compared against the analytic expectation with the
noise term switched off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .acoustics import (
    BeamOrientation,
    EnvironmentParams,
    SonarConfig,
    absorption_coeff,
    beam_gain,
    noise_level_band,
    transmission_loss,
)
from .db import to_db, to_linear
from .geometry import (
    BinLayout,
    SonarPose,
    beam_angles_surface,
    beam_orientations,
    bin_index,
    layout_for,
    rotate_to_sonar_frame,
)
from .scatter import ObjectMaterial, bottom_coeff, surface_coeff, volume_coeff

# Hits more tangent than this are treated as misses; the scatter model is
# undefined at zero grazing.
MIN_GRAZING_RAD = 1e-9
# Offset applied along the reflected direction before retracing, and the
# minimum parameter of a secondary trace, so a bounce does not re-hit its
# own reflection point.
BOUNCE_OFFSET_M = 1e-9
BOUNCE_MIN_T = 1e-6
# Rays per Moller-Trumbore block of _trace_mesh; a block holds a few
# (rays, faces, 3) arrays.
MESH_CHUNK_RAYS = 4096
# Rays per pass of ping's body: the bound on every per-ray array of a ping
# but its directions.
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


# ---------------------------------------------------------------------------
# Batch intersection kernels. Each returns (t, normals) with t = +inf where
# there is no hit beyond t_min; the plane kernel gives one normal for all.


def _trace_plane(origins, dirs, z, heading, t_min):
    """Crossing of the horizontal plane at depth z by the rays travelling
    toward it from the water: heading +1 (down) for the bottom, -1 (up) for
    the surface. The normal faces the water."""
    t = np.full(origins.shape[0], np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        cand = (z - origins[:, 2]) / dirs[:, 2]
    ok = (heading * dirs[:, 2] > 0.0) & (cand > t_min) & np.isfinite(cand)
    t[ok] = cand[ok]
    return t, (0.0, 0.0, -heading)


def _trace_mesh(mesh: TriangleMesh, origins, dirs, t_min):
    """Nearest face hit by Moller-Trumbore (JGT 1997) over every face, run in
    chunks of rays on only the rays that meet the mesh's bounding box: a
    Kay-Kajiya slab test (SIGGRAPH 1986) culls the rest."""
    n = origins.shape[0]
    t_best = np.full(n, np.inf)
    normals = np.zeros((n, 3))
    # Rounding can put a Moller-Trumbore hit a little outside its face, by an
    # amount that grows with the coordinates, so the box is padded to match:
    # for each ray by its own origin, so no other ray of the batch moves it.
    ao = np.abs(origins)
    pad = 1e-6 * (1.0 + np.abs(mesh.vertices).max()
                  + np.maximum(np.maximum(ao[:, 0], ao[:, 1]), ao[:, 2]))
    # One slab per axis, in a loop over the three columns, which numpy runs
    # several times faster than a reduction over each row's three values. A
    # direction component of 0 gives a slab an infinite entry and exit of
    # the right signs, or nan for an origin on the padded plane, which no
    # face reaches: np.maximum and np.minimum carry the nan, and every
    # comparison below rejects it.
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

    v0 = mesh.vertices[mesh.faces[:, 0]]
    e1 = mesh.vertices[mesh.faces[:, 1]] - v0
    e2 = mesh.vertices[mesh.faces[:, 2]] - v0
    face_n = np.cross(e1, e2)
    for start in range(0, rays.size, MESH_CHUNK_RAYS):
        ri = rays[start:start + MESH_CHUNK_RAYS]
        o = origins[ri][:, None, :]
        dr = dirs[ri][:, None, :]
        pvec = np.cross(dr, e2[None, :, :])
        det = np.einsum("rfc,fc->rf", pvec, e1)
        tvec = o - v0[None, :, :]
        qvec = np.cross(tvec, e1[None, :, :])
        # det = 0, a ray parallel to the face, gives inf or nan, rejected below.
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
        tb = t[np.arange(t.shape[0]), best]
        hit = np.isfinite(tb)
        gi = ri[hit]
        t_best[gi] = tb[hit]
        fn = face_n[best[hit]]
        # Orient each face normal against the incoming ray.
        sign = -np.sign(np.einsum("rc,rc->r", fn, dirs[gi]))
        sign = np.where(sign == 0.0, 1.0, sign)
        normals[gi] = fn * sign[:, None] / np.linalg.norm(fn, axis=-1, keepdims=True)
    return t_best, normals


def _trace_batch(scene: Scene, origins, dirs, t_min, t_max):
    """Nearest hit per ray. Returns (kind, t, points, normals, grazing,
    roughness) with kind = -1 and t = inf where the ray escapes."""
    n = origins.shape[0]
    t_best = np.full(n, np.inf)
    kind = np.full(n, -1, dtype=np.int8)
    normals = np.zeros((n, 3))
    roughness = np.full(n, np.nan)

    def nearer(code, t_o, normal):
        better = t_o < t_best
        t_best[better] = t_o[better]
        kind[better] = code
        normals[better] = normal if np.ndim(normal) == 1 else normal[better]
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

    beyond = t_best > np.broadcast_to(np.asarray(t_max, dtype=float), (n,))
    t_best = np.where(beyond, np.inf, t_best)
    kind[beyond] = -1

    grazing = np.zeros(n)
    hit = kind >= 0
    if np.any(hit):
        cosines = np.abs(np.einsum("rc,rc->r", dirs[hit], normals[hit]))
        grazing[hit] = np.arcsin(np.clip(cosines, 0.0, 1.0))
        tangent = hit & (grazing < MIN_GRAZING_RAD)
        kind[tangent] = -1
        t_best[tangent] = np.inf

    t_safe = np.where(np.isfinite(t_best), t_best, 0.0)
    points = origins + t_safe[:, None] * dirs
    return kind, t_best, points, normals, grazing, roughness


def _bounce(scene: Scene, points, dirs, normals, remaining):
    """Specular bounce of a batch of impacts: reflected directions, the mask
    of rays with range left to retrace (remaining > BOUNCE_MIN_T), and the
    _trace_batch result of those rays from origins offset along their
    reflection."""
    refl = dirs - 2.0 * np.einsum("rc,rc->r", dirs, normals)[:, None] * normals
    refl /= np.linalg.norm(refl, axis=1, keepdims=True)
    origins = points + BOUNCE_OFFSET_M * refl
    live = remaining > BOUNCE_MIN_T
    trace = _trace_batch(
        scene, origins[live], refl[live], BOUNCE_MIN_T, remaining[live]
    )
    return refl, live, trace


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
    """Per-bin linear intensities of one simulated ping, by component."""

    layout: BinLayout
    beam: BeamOrientation
    num_rays: int
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
        return to_db(self.total)

    @property
    def bottom_db(self) -> np.ndarray:
        return to_db(self.bottom)

    @property
    def surface_db(self) -> np.ndarray:
        return to_db(self.surface)

    @property
    def object_db(self) -> np.ndarray:
        return to_db(self.object_)

    @property
    def volume_db(self) -> np.ndarray:
        return to_db(self.volume)

    @property
    def multipath_db(self) -> np.ndarray:
        return to_db(self.multipath)

    @property
    def bin_centers(self) -> np.ndarray:
        return self.layout.centers


def _beam_weights(dirs, orientation, sonar, c):
    """Beam gain at world directions dirs of the beam pointed at the
    (pitch, yaw) orientation of geometry.beam_orientations."""
    theta, psi = beam_angles_surface(rotate_to_sonar_frame(dirs, *orientation))
    return beam_gain(theta, psi, sonar, c)


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


def _echo(distance, kind, grazing, roughness, gains, env, sonar, layout):
    """Sonar-equation echo of a batch of impacts at path length distance:
    the 0-based bin of each and its linear intensity, the source level times
    the two-way loss, the beam gains (multiplied in the order given), the
    backscatter coefficient and the ray's ensonified patch."""
    f = sonar.frequency_khz
    value = to_linear(sonar.source_level_db) * to_linear(
        -transmission_loss(distance, absorption_coeff(f, env)))
    for gain in gains:
        value = value * gain
    value = (value * _boundary_coeff_linear(kind, grazing, roughness, env, f)
             * ray_patch_area(distance, grazing, sonar.num_rays))
    return bin_index(distance, layout) - 1, value


def ping(
    scene: Scene,
    sonar: SonarConfig,
    pose: SonarPose,
    beam: BeamOrientation,
    *,
    transmit_beam: BeamOrientation | None = None,
    seed: int | np.random.Generator | None = None,
) -> PingReturn:
    """Simulate one ping: trace sonar.num_rays rays over the full sphere,
    accumulate boundary, object, volume and first-order multipath intensity
    per range bin. seed goes to np.random.default_rng, so it may be an
    integer, a SeedSequence or a Generator, which is used as it is."""
    rng = np.random.default_rng(seed)
    env = scene.env
    c = env.sound_speed()
    layout = layout_for(env, sonar)
    t_max = layout.end_m
    n_rays = sonar.num_rays
    num_bins = layout.num_bins

    dirs = sample_ray_directions(n_rays, rng)
    origin = np.zeros(3)
    origin[2] = pose.depth_m
    rx, tx = beam_orientations(pose, beam, transmit_beam)

    bottom, surface, object_, multipath = (np.zeros(num_bins) for _ in range(4))
    # The volume term's beam weight summed by each ray's last ensonified
    # shell, numbered from 1 (num_bins for a ray that escapes).
    per_last = np.zeros(num_bins + 1)
    for start in range(0, n_rays, PING_CHUNK_RAYS):
        d = dirs[start:start + PING_CHUNK_RAYS]
        bp_t = _beam_weights(d, tx, sonar, c)
        # The gain depends on the orientation only, so a receive beam that
        # points where the transmitter does reuses the transmit weights.
        bp_r = bp_t if rx == tx else _beam_weights(d, rx, sonar, c)
        w = bp_t * bp_r

        kind, t, points, normals, grazing, roughness = _trace_batch(
            scene, np.broadcast_to(origin, d.shape), d, 0.0, t_max
        )
        hit = kind >= 0
        kinds_h = kind[hit]
        bins, value = _echo(t[hit], kinds_h, grazing[hit], roughness[hit],
                            (w[hit],), env, sonar, layout)
        for code, acc in ((KIND_BOTTOM, bottom), (KIND_SURFACE, surface),
                          (KIND_OBJECT, object_)):
            sel = kinds_h == code
            np.add.at(acc, bins[sel], value[sel])

        # Volume reverberation: every ray ensonifies each shell it crosses,
        # up to and including the shell of its impact.
        last_bin = np.full(d.shape[0], num_bins)
        last_bin[hit] = bins + 1
        np.add.at(per_last, last_bin, w)

        # First-order multipath: one specular bounce per impacted ray,
        # received along the direct line from its second impact.
        idx = np.nonzero(hit)[0]
        _, live, (kind2, t2, points2, _, grazing2, roughness2) = _bounce(
            scene, points[idx], d[idx], normals[idx], t_max - t[idx]
        )
        hit2 = kind2 >= 0
        gi = idx[live][hit2]
        to_sonar = points2[hit2] - origin[None, :]
        to_sonar /= np.linalg.norm(to_sonar, axis=1, keepdims=True)
        bp_r2 = _beam_weights(to_sonar, rx, sonar, c)
        bins2, value2 = _echo(t[gi] + t2[hit2], kind2[hit2], grazing2[hit2],
                              roughness2[hit2], (bp_t[gi], bp_r2), env, sonar,
                              layout)
        np.add.at(multipath, bins2, value2)

    volume = np.zeros(num_bins)
    if scene.volume_enabled:
        reach = np.cumsum(per_last[1:][::-1])[::-1]
        f = sonar.frequency_khz
        sv_fac = to_linear(volume_coeff(env.particle_density_db, f))
        tl_lin_c = to_linear(
            -transmission_loss(layout.centers, absorption_coeff(f, env)))
        shares = ray_bin_volume(np.arange(1, num_bins + 1), layout, n_rays)
        volume = (to_linear(sonar.source_level_db) * sv_fac * tl_lin_c
                  * shares * reach)

    return PingReturn(
        layout=layout,
        beam=beam,
        num_rays=n_rays,
        bottom=bottom,
        surface=surface,
        object_=object_,
        volume=volume,
        multipath=multipath,
        noise=np.zeros(num_bins),
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
    set by the in-band ambient level, drawn from np.random.default_rng(seed).
    Disabled returns the ping unchanged."""
    if not enabled:
        return ping_return
    rng = np.random.default_rng(seed)
    level = noise_level_band(sonar.frequency_khz, env, sonar.bandwidth_hz)
    mean = to_linear(level)
    noise = rng.exponential(mean, ping_return.layout.num_bins)
    return replace(ping_return, noise=noise)
