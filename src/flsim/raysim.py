"""Monte-Carlo ping simulation by ray tracing against a 3-D scene.

A ping launches a bundle of isotropically distributed rays from the sonar,
traces each to its first impact (sea floor, sea surface or an object),
accumulates per-bin reverberation and echo intensity weighted by the
transmit and receive beam patterns, adds volume reverberation along every
ray, and follows one specular bounce per ray for first-order multipath.

Every obstacle is a triangle mesh; a box is its 12-triangle mesh (box_mesh).
One kernel traces them, _trace_mesh: a slab test against the mesh's
bounding box drops the rays that cannot reach it, and Moller-Trumbore over
every face finds the nearest hit of the rest.

A heightfield bottom is traced by _trace_heightfield, a lockstep grid walk
with one body for the x and y axes and one root rule for each cell's
bilinear patch (_patch, which Heightfield.depth_at shares). A ray is walked
only while it lies inside the terrain's depth slab [depths.min(),
depths.max()], and beyond the grid on an axis it stays in one clamped
virtual cell and crosses no walls.

Every bounce goes through one batch path, _bounce: reflect the ray about the
hit normal, offset the new origin along the reflection, and retrace with the
range left. ping calls it on all its impacts.

Every impact, direct or bounced, becomes an echo through one sonar-equation
term, _echo: source level, two-way loss and ensonified patch at the path
length, the transmit and receive gains, and the backscatter coefficient of
the impact. A bounce differs from a direct hit only in its path length,
t1 + t2 instead of t, and its receive weight, the gain of the direct line
from the second impact to the sonar instead of the launch direction.

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
class Heightfield:
    """Sea-floor depth sampled on a regular grid, bilinear between nodes.

    depths[i, j] is the depth below the surface at (x0 + i*spacing_m,
    y0 + j*spacing_m). Beyond the grid the edge values continue unchanged.
    """

    x0: float
    y0: float
    spacing_m: float
    depths: np.ndarray

    def __post_init__(self):
        for attr in ("x0", "y0", "spacing_m"):
            value = getattr(self, attr)
            if not math.isfinite(value):
                raise ValueError(f"{attr} must be finite, got {value}")
        if not self.spacing_m > 0:
            raise ValueError(f"spacing_m must be > 0, got {self.spacing_m}")
        depths = np.asarray(self.depths, dtype=float)
        if depths.ndim != 2 or depths.shape[0] < 2 or depths.shape[1] < 2:
            raise ValueError("depths must be a 2-D grid with at least 2x2 nodes")
        if not np.all((depths > 0) & np.isfinite(depths)):
            raise ValueError("all heightfield depths must be finite and > 0")
        object.__setattr__(self, "depths", depths)

    def depth_at(self, x, y):
        """Bilinear depth below the surface, clamped beyond the grid."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        nx, ny = self.depths.shape
        fx = np.clip((x - self.x0) / self.spacing_m, 0.0, nx - 1.0)
        fy = np.clip((y - self.y0) / self.spacing_m, 0.0, ny - 1.0)
        ix = np.minimum(fx.astype(int), nx - 2)
        iy = np.minimum(fy.astype(int), ny - 2)
        u = fx - ix
        v = fy - iy
        z00, ca, cb, cg = _patch(self.depths, ix, iy)
        out = z00 + ca * u + cb * v + cg * u * v
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class TriangleMesh:
    """Triangle-mesh obstacle with vertices (n, 3) and faces (m, 3)."""

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
            self.bottom, (FlatBottom, Heightfield)
        ):
            raise ValueError("bottom must be FlatBottom, Heightfield or None")
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


def _patch(depths, i, j):
    """Bilinear patch of cells (i, j): depth z00 + ca*u + cb*v + cg*u*v at
    local coordinates (u, v) in [0, 1]^2. Each corner is gathered once."""
    z00 = depths[i, j]
    z10 = depths[i + 1, j]
    z01 = depths[i, j + 1]
    return z00, z10 - z00, z01 - z00, depths[i + 1, j + 1] - z10 - z01 + z00


def _trace_heightfield(hf: Heightfield, origins, dirs, t_min, t_max):
    """First intersection with the bilinear terrain by stepping every ray
    through grid columns in lockstep (Amanatides-Woo, Eurographics 1987) and
    solving the per-cell quadratic.

    The x and y axes share one walk body, and one root rule solves each
    cell: the linear root on a planar patch, the stable quadratic pair on a
    curved one, then the first root inside the cell's parameter span.

    Two exact cuts keep the walk short. The terrain never leaves the depth
    slab [depths.min(), depths.max()], so each ray is walked only over the
    part of [t_min, t_max] where it lies inside that slab. Every cell beyond
    the grid on one axis has the same clamped patch, so on that axis a ray
    outside the grid sits in the one virtual cell just past the edge (index
    -1 or n - 1) and crosses no walls until it comes back to the grid."""
    n = origins.shape[0]
    t_hit = np.full(n, np.inf)
    normals = np.zeros((n, 3))
    s = hf.spacing_m
    d = hf.depths

    # Parameter interval of each ray inside the depth slab, padded against
    # rounding as the mesh cull is. A level ray gets (-inf, inf) inside the
    # slab, an empty interval outside it, and nan on a padded face, which
    # the comparison below rejects.
    pad = 1e-6 * (1.0 + d.max())
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (d.min() - pad - origins[:, 2]) / dirs[:, 2]
        b = (d.max() + pad - origins[:, 2]) / dirs[:, 2]
        t_start = np.maximum(t_min, np.minimum(a, b))
        t_end = np.minimum(t_max, np.maximum(a, b))
        rays = np.nonzero(t_start < t_end)[0]
    if rays.size == 0:
        return t_hit, normals

    oz, dz = origins[rays, 2], dirs[rays, 2]
    t_cur = t_start[rays]
    t_stop = t_end[rays]
    m = rays.size
    active = np.ones(m, dtype=bool)

    # Walk state per axis, x then y, one 1-D array each (an (m, 2) stack
    # gathers more slowly): the grid corner, the last real cell, the ray
    # origin and direction, the cell (clamped to the virtual cell just past
    # each edge), its step, the wall spacing in t, and the parameter of the
    # next wall crossing. That is inf while the ray moves away from the
    # grid, and the grid's edge wall while it moves toward it from the
    # virtual cell.
    axes = []
    for ax, c0 in ((0, hf.x0), (1, hf.y0)):
        k = d.shape[ax] - 2  # the last real cell
        o, dr = origins[rays, ax], dirs[rays, ax]
        i = np.clip(np.floor((o + t_cur * dr - c0) / s), -1, k + 1).astype(np.int64)
        with np.errstate(divide="ignore"):
            wall_dt = np.abs(s / dr)
        wall_t = np.full(m, np.inf)
        toward = ((dr > 0) & (i <= k)) | ((dr < 0) & (i >= 0))
        wall = i[toward] + (dr[toward] > 0)
        wall_t[toward] = (c0 + wall * s - o[toward]) / dr[toward]
        axes.append((c0, k, o, dr, i, np.sign(dr).astype(np.int64), wall_dt, wall_t))
    corner, last, org, drn, cell, step, wall_dt, wall_t = zip(*axes)

    # Over a parameter length L a ray crosses at most ceil(L |dx| / s) + 1 x
    # walls and as many y walls, and never more than the grid's nx + ny
    # walls; each step crosses a wall or ends the ray. The constant covers
    # those +1s, the last step and rounding.
    crossings = np.ceil((t_stop - t_cur) * (np.abs(drn[0]) + np.abs(drn[1])) / s)
    max_steps = int(min(crossings.max(), sum(d.shape))) + 8
    for _ in range(max_steps):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        t0 = t_cur[idx]
        t1 = np.minimum(np.minimum(wall_t[0][idx], wall_t[1][idx]), t_stop[idx])

        # Local cell coordinates as affine functions of the ray parameter,
        # flattened outside the grid so the edge values continue.
        real, out, coord, rate = [], [], [], []
        for c0, k, o, dr, i in zip(corner, last, org, drn, cell):
            c = i[idx]
            ic = np.clip(c, 0, k)
            off = c != ic
            real.append(ic)
            out.append(off)
            coord.append(np.where(off, c > k, (o[idx] - (c0 + ic * s)) / s))
            rate.append(np.where(off, 0.0, dr[idx] / s))
        z00, ca, cb, cg = _patch(d, *real)
        (u0, v0), (du, dv) = coord, rate

        qa = -cg * du * dv
        qb = dz[idx] - (ca * du + cb * dv + cg * (u0 * dv + v0 * du))
        qc = oz[idx] - (z00 + ca * u0 + cb * v0 + cg * u0 * v0)

        # One root rule: the linear root on a planar patch, the stable
        # quadratic pair on a curved one (a negative discriminant gives nan),
        # then the first root inside [t0, t1].
        lo = np.full(idx.size, np.nan)
        hi = np.full(idx.size, np.nan)
        planar = np.abs(qb) > 1e-300
        lo[planar] = -qc[planar] / qb[planar]
        curved = np.abs(qa) > 1e-300
        if np.any(curved):
            a_c, b_c, c_c = qa[curved], qb[curved], qc[curved]
            with np.errstate(invalid="ignore"):
                sq = np.sqrt(b_c ** 2 - 4.0 * a_c * c_c)
            q = -0.5 * (b_c + np.sign(b_c) * sq)
            q = np.where(q == 0.0, -0.5 * sq, q)
            with np.errstate(divide="ignore", invalid="ignore"):
                r1 = np.where(q != 0.0, c_c / q, np.inf)
                r2 = q / a_c
            lo[curved] = np.minimum(r1, r2)
            hi[curved] = np.maximum(r1, r2)
        root = np.where((lo >= t0) & (lo <= t1), lo,
                        np.where((hi >= t0) & (hi <= t1), hi, np.inf))

        hit = np.isfinite(root)
        if np.any(hit):
            gi = idx[hit]
            th = root[hit]
            t_hit[rays[gi]] = th
            at = [np.clip(c[hit] + r[hit] * th, 0.0, 1.0) for c, r in zip(coord, rate)]
            grad = [
                np.where(off[hit], 0.0, (slope[hit] + cg[hit] * at[1 - ax]) / s)
                for ax, (off, slope) in enumerate(zip(out, (ca, cb)))
            ]
            nvec = np.stack([*grad, -np.ones_like(th)], axis=-1)
            normals[rays[gi]] = nvec / np.linalg.norm(nvec, axis=-1, keepdims=True)
            active[gi] = False

        # Advance the remaining rays into the next cell; a ray that steps
        # out of the grid on an axis crosses no more walls of that axis.
        idx, t1 = idx[~hit], t1[~hit]
        done = t1 >= t_stop[idx]
        t_cur[idx] = t1
        for k, i, di, dt, tw in zip(last, cell, step, wall_dt, wall_t):
            sub = idx[tw[idx] <= t1]
            i[sub] += di[sub]
            tw[sub] += dt[sub]
            tw[sub[(i[sub] < 0) | (i[sub] > k)]] = np.inf
        active[idx[done]] = False
    if np.any(active):
        raise RuntimeError(
            f"heightfield trace: {np.count_nonzero(active)} rays still active "
            f"after {max_steps} cell steps"
        )
    return t_hit, normals


def _trace_mesh(mesh: TriangleMesh, origins, dirs, t_min):
    """Nearest face hit by Moller-Trumbore (JGT 1997) over every face, run in
    chunks of rays on only the rays that meet the mesh's bounding box: a
    Kay-Kajiya slab test (SIGGRAPH 1986) culls the rest."""
    n = origins.shape[0]
    t_best = np.full(n, np.inf)
    normals = np.zeros((n, 3))
    # Rounding can put a Moller-Trumbore hit a little outside its face, by an
    # amount that grows with the coordinates, so the box is padded to match.
    pad = 1e-6 * (1.0 + np.abs(mesh.vertices).max() + np.abs(origins).max(initial=0.0))
    lo = mesh.vertices.min(axis=0) - pad
    hi = mesh.vertices.max(axis=0) + pad
    # A direction component of 0 gives a slab an infinite entry and exit of
    # the right signs, or nan for an origin on the padded plane, which no
    # face reaches and every comparison below rejects.
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (lo - origins) / dirs
        b = (hi - origins) / dirs
        t_near = np.minimum(a, b).max(axis=1)
        t_far = np.maximum(a, b).min(axis=1)
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
    elif isinstance(scene.bottom, Heightfield):
        hf = scene.bottom
        nearer(KIND_BOTTOM, *_trace_heightfield(hf, origins, dirs, t_min, t_max))
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
    """n isotropically distributed unit vectors (normalized Gaussians)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    dirs = rng.standard_normal((n, 3))
    norms = np.linalg.norm(dirs, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        dirs[bad] = rng.standard_normal((int(bad.sum()), 3))
        norms = np.linalg.norm(dirs, axis=1)
    return dirs / norms[:, None]


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
    origins = np.broadcast_to(origin, dirs.shape)

    rx, tx = beam_orientations(pose, beam, transmit_beam)
    bp_t = _beam_weights(dirs, tx, sonar, c)
    # The gain depends on the orientation only, so a receive beam that
    # points where the transmitter does reuses the transmit weights.
    bp_r = bp_t if rx == tx else _beam_weights(dirs, rx, sonar, c)
    w = bp_t * bp_r

    kind, t, points, normals, grazing, roughness = _trace_batch(
        scene, origins, dirs, 0.0, t_max
    )
    hit = kind >= 0
    kinds_h = kind[hit]
    bins, value = _echo(t[hit], kinds_h, grazing[hit], roughness[hit],
                        (w[hit],), env, sonar, layout)
    bottom, surface, object_ = (np.zeros(num_bins) for _ in range(3))
    for code, acc in ((KIND_BOTTOM, bottom), (KIND_SURFACE, surface),
                      (KIND_OBJECT, object_)):
        sel = kinds_h == code
        np.add.at(acc, bins[sel], value[sel])

    # Volume reverberation: every ray ensonifies each shell it crosses, up
    # to and including the shell of its impact.
    volume = np.zeros(num_bins)
    if scene.volume_enabled:
        last_bin = np.full(n_rays, num_bins)
        last_bin[hit] = bins + 1
        per_last = np.bincount(last_bin, weights=w, minlength=num_bins + 1)[1:]
        reach = np.cumsum(per_last[::-1])[::-1]
        f = sonar.frequency_khz
        sv_fac = to_linear(volume_coeff(env.particle_density_db, f))
        tl_lin_c = to_linear(
            -transmission_loss(layout.centers, absorption_coeff(f, env)))
        shares = ray_bin_volume(np.arange(1, num_bins + 1), layout, n_rays)
        volume = (to_linear(sonar.source_level_db) * sv_fac * tl_lin_c
                  * shares * reach)

    # First-order multipath: one specular bounce per impacted ray, received
    # along the direct line from its second impact.
    multipath = np.zeros(num_bins)
    idx = np.nonzero(hit)[0]
    _, live, (kind2, t2, points2, _, grazing2, roughness2) = _bounce(
        scene, points[idx], dirs[idx], normals[idx], t_max - t[idx]
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
