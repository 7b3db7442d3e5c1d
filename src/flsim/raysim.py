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
that solves each cell's bilinear patch. A ray is walked only while it lies
inside the terrain's depth slab [depths.min(), depths.max()], and beyond the
grid on an axis it stays in one clamped virtual cell and crosses no walls.

Every bounce goes through one batch path, _bounce: reflect the ray about the
hit normal, offset the new origin along the reflection, and retrace with the
range left. ping calls it on all its impacts. A bounce's echo is binned
and attenuated at the path length t1 + t2 and received with the beam
weight of the direct line from the second impact to the sonar.

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
from .db import to_db
from .geometry import (
    BinLayout,
    SonarPose,
    beam_angles_surface,
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

KIND_BOTTOM = 0
KIND_SURFACE = 1
KIND_OBJECT = 2


@dataclass(frozen=True)
class FlatBottom:
    """Horizontal sea floor at a fixed depth below the surface."""

    depth_m: float

    def __post_init__(self):
        if not self.depth_m > 0:
            raise ValueError(f"depth_m must be > 0, got {self.depth_m}")


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
        if not self.spacing_m > 0:
            raise ValueError(f"spacing_m must be > 0, got {self.spacing_m}")
        depths = np.asarray(self.depths, dtype=float)
        if depths.ndim != 2 or depths.shape[0] < 2 or depths.shape[1] < 2:
            raise ValueError("depths must be a 2-D grid with at least 2x2 nodes")
        if not np.all(depths > 0):
            raise ValueError("all heightfield depths must be > 0")
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
        d = self.depths
        out = (
            d[ix, iy] * (1 - u) * (1 - v)
            + d[ix + 1, iy] * u * (1 - v)
            + d[ix, iy + 1] * (1 - u) * v
            + d[ix + 1, iy + 1] * u * v
        )
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


def _trace_heightfield(hf: Heightfield, origins, dirs, t_min, t_max):
    """First intersection with the bilinear terrain by stepping every ray
    through grid columns in lockstep (Amanatides-Woo, Eurographics 1987) and
    solving the per-cell quadratic.

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
    nx, ny = hf.depths.shape
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

    ox, oy, oz = origins[rays, 0], origins[rays, 1], origins[rays, 2]
    dx, dy, dz = dirs[rays, 0], dirs[rays, 1], dirs[rays, 2]
    t_cur = t_start[rays]
    t_stop = t_end[rays]
    m = rays.size
    active = np.ones(m, dtype=bool)

    # Start cell, clamped to the virtual cell just past each edge.
    ix = np.clip(np.floor((ox + t_cur * dx - hf.x0) / s), -1, nx - 1).astype(np.int64)
    iy = np.clip(np.floor((oy + t_cur * dy - hf.y0) / s), -1, ny - 1).astype(np.int64)
    sx = np.sign(dx).astype(np.int64)
    sy = np.sign(dy).astype(np.int64)

    with np.errstate(divide="ignore"):
        step_tx = np.abs(s / dx)
        step_ty = np.abs(s / dy)
    # Parameter of the next x and y wall crossing for each ray: inf while
    # it moves away from the grid, the grid's edge wall while it moves
    # toward it from the virtual cell.
    tx_next = np.full(m, np.inf)
    ty_next = np.full(m, np.inf)
    pos_x = (dx > 0) & (ix < nx - 1)
    neg_x = (dx < 0) & (ix >= 0)
    tx_next[pos_x] = (hf.x0 + (ix[pos_x] + 1) * s - ox[pos_x]) / dx[pos_x]
    tx_next[neg_x] = (hf.x0 + ix[neg_x] * s - ox[neg_x]) / dx[neg_x]
    pos_y = (dy > 0) & (iy < ny - 1)
    neg_y = (dy < 0) & (iy >= 0)
    ty_next[pos_y] = (hf.y0 + (iy[pos_y] + 1) * s - oy[pos_y]) / dy[pos_y]
    ty_next[neg_y] = (hf.y0 + iy[neg_y] * s - oy[neg_y]) / dy[neg_y]

    # Over a parameter length L a ray crosses at most ceil(L |dx| / s) + 1 x
    # walls and as many y walls, and never more than the grid's nx + ny
    # walls; each step crosses a wall or ends the ray. The constant covers
    # those +1s, the last step and rounding.
    crossings = np.ceil((t_stop - t_cur) * (np.abs(dx) + np.abs(dy)) / s)
    max_steps = int(min(crossings.max(), nx + ny)) + 8
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
            t_hit[rays[gi]] = th
            uh = np.clip(u0[hit] + du[hit] * th, 0.0, 1.0)
            vh = np.clip(v0[hit] + dv[hit] * th, 0.0, 1.0)
            gx = np.where(
                out_lo_x[hit] | out_hi_x[hit], 0.0, (ca[hit] + cg[hit] * vh) / s
            )
            gy = np.where(
                out_lo_y[hit] | out_hi_y[hit], 0.0, (cb[hit] + cg[hit] * uh) / s
            )
            nvec = np.stack([gx, gy, -np.ones_like(gx)], axis=-1)
            normals[rays[gi]] = nvec / np.linalg.norm(nvec, axis=-1, keepdims=True)
            active[gi] = False

        # Advance the remaining rays into the next cell; a ray that steps
        # out of the grid on an axis crosses no more walls of that axis.
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        t1 = np.minimum(np.minimum(tx_next[idx], ty_next[idx]), t_stop[idx])
        done = t1 >= t_stop[idx]
        adv_x = tx_next[idx] <= t1
        adv_y = ty_next[idx] <= t1
        t_cur[idx] = t1
        sub = idx[adv_x]
        ix[sub] += sx[sub]
        tx_next[sub] += step_tx[sub]
        tx_next[sub[(ix[sub] < 0) | (ix[sub] > nx - 2)]] = np.inf
        sub = idx[adv_y]
        iy[sub] += sy[sub]
        ty_next[sub] += step_ty[sub]
        ty_next[sub[(iy[sub] < 0) | (iy[sub] > ny - 2)]] = np.inf
        active[idx[done]] = False
    if np.any(active):
        raise RuntimeError(
            f"heightfield trace: {np.count_nonzero(active)} rays still active "
            f"after {max_steps} cell steps"
        )
    return t_hit, normals


def _trace_mesh(mesh: TriangleMesh, origins, dirs, t_min, chunk=4096):
    """Nearest face hit by Moller-Trumbore (JGT 1997) over every face, run in
    chunks of rays on only the rays that meet the mesh's bounding box: a
    Kay-Kajiya slab test (SIGGRAPH 1986) culls the rest."""
    n = origins.shape[0]
    t_best = np.full(n, np.inf)
    normals = np.zeros((n, 3))
    # Rounding can put a Moller-Trumbore hit a little outside its face, by an
    # amount that grows with the coordinates, so the box is padded to match.
    pad = 1e-6 * (1.0 + np.abs(mesh.vertices).max() + np.abs(origins).max())
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
    for start in range(0, rays.size, chunk):
        ri = rays[start:start + chunk]
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
    """Specular bounce of a batch of impacts: reflected directions, origins
    offset along them, the mask of rays with range left to retrace
    (remaining > BOUNCE_MIN_T), and the _trace_batch result of those rays
    (None when there are none)."""
    refl = dirs - 2.0 * np.einsum("rc,rc->r", dirs, normals)[:, None] * normals
    refl /= np.linalg.norm(refl, axis=1, keepdims=True)
    origins = points + BOUNCE_OFFSET_M * refl
    live = remaining > BOUNCE_MIN_T
    trace = None
    if np.any(live):
        trace = _trace_batch(
            scene, origins[live], refl[live], BOUNCE_MIN_T, remaining[live]
        )
    return origins, refl, live, trace


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


def ray_bin_volume(n: int, layout: BinLayout, n_rays: int):
    """Share of bin n's shell volume represented by one ray."""
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


def _beam_weights(dirs, pose, beam, sonar, c):
    vb = rotate_to_sonar_frame(
        dirs, pose.pitch_rad + beam.pitch_rad, beam.yaw_rad
    )
    theta, psi = beam_angles_surface(vb)
    return beam_gain(theta, psi, sonar, c)


def _boundary_coeff_linear(kind, grazing, roughness, env, f_khz):
    """Per-hit backscatter factor in linear intensity, by impact kind."""
    out = np.zeros(kind.shape[0])
    is_bottom = kind == KIND_BOTTOM
    if np.any(is_bottom):
        s = bottom_coeff(env.bottom_type, grazing[is_bottom], f_khz)
        out[is_bottom] = 10.0 ** (np.asarray(s) / 10.0)
    is_surface = kind == KIND_SURFACE
    if np.any(is_surface):
        s = surface_coeff(env.wind_knots, grazing[is_surface], f_khz)
        out[is_surface] = 10.0 ** (np.asarray(s) / 10.0)
    is_object = kind == KIND_OBJECT
    if np.any(is_object):
        # Object echoes scatter like a rough boundary patch of the object's
        # own roughness class.
        for r in np.unique(roughness[is_object]):
            sel = is_object & (roughness == r)
            s = bottom_coeff(float(r), grazing[sel], f_khz)
            out[sel] = 10.0 ** (np.asarray(s) / 10.0)
    return out


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
    tx = transmit_beam if transmit_beam is not None else beam
    env = scene.env
    c = env.sound_speed()
    layout = layout_for(env, sonar)
    t_max = layout.end_m
    f = sonar.frequency_khz
    alpha_w = absorption_coeff(f, env)
    n_rays = sonar.num_rays
    num_bins = layout.num_bins
    sl_fac = 10.0 ** (sonar.source_level_db / 10.0)

    dirs = sample_ray_directions(n_rays, rng)

    origin = np.zeros(3)
    origin[2] = pose.depth_m
    origins = np.broadcast_to(origin, dirs.shape)

    bp_t = _beam_weights(dirs, pose, tx, sonar, c)
    # The gain depends on the beam's orientation only, so a receive beam that
    # points where the transmitter does reuses the transmit weights.
    if (tx.pitch_rad, tx.yaw_rad) == (beam.pitch_rad, beam.yaw_rad):
        bp_r = bp_t
    else:
        bp_r = _beam_weights(dirs, pose, beam, sonar, c)
    w = bp_t * bp_r

    kind, t, points, normals, grazing, roughness = _trace_batch(
        scene, origins, dirs, 0.0, t_max
    )
    hit = kind >= 0

    bottom = np.zeros(num_bins)
    surface = np.zeros(num_bins)
    object_ = np.zeros(num_bins)
    volume = np.zeros(num_bins)
    multipath = np.zeros(num_bins)

    if np.any(hit):
        t_h = t[hit]
        bins_h = bin_index(t_h, layout) - 1
        tl_lin = 10.0 ** (-transmission_loss(t_h, alpha_w) / 10.0)
        patch = ray_patch_area(t_h, grazing[hit], n_rays)
        coeff = _boundary_coeff_linear(
            kind[hit], grazing[hit], roughness[hit], env, f
        )
        value = sl_fac * tl_lin * w[hit] * coeff * patch
        kinds_h = kind[hit]
        for code, acc in ((KIND_BOTTOM, bottom), (KIND_SURFACE, surface),
                          (KIND_OBJECT, object_)):
            sel = kinds_h == code
            if np.any(sel):
                np.add.at(acc, bins_h[sel], value[sel])

    # Volume reverberation: every ray ensonifies each shell it crosses, up
    # to and including the shell of its impact.
    if scene.volume_enabled:
        last_bin = np.where(hit, bin_index(np.where(hit, t, t_max), layout), num_bins)
        per_last = np.bincount(last_bin, weights=w, minlength=num_bins + 1)[1:]
        reach = np.cumsum(per_last[::-1])[::-1]
        sv_fac = 10.0 ** (volume_coeff(env.particle_density_db, f) / 10.0)
        centers = layout.centers
        tl_lin_c = 10.0 ** (-transmission_loss(centers, alpha_w) / 10.0)
        shares = np.array(
            [ray_bin_volume(m, layout, n_rays) for m in range(1, num_bins + 1)]
        )
        volume = sl_fac * sv_fac * tl_lin_c * shares * reach

    # First-order multipath: one specular bounce per impacted ray.
    if np.any(hit):
        idx = np.nonzero(hit)[0]
        _, _, live, trace2 = _bounce(
            scene, points[idx], dirs[idx], normals[idx], t_max - t[idx]
        )
        if trace2 is not None:
            idx = idx[live]
            kind2, t2, points2, normals2, grazing2, roughness2 = trace2
            hit2 = kind2 >= 0
            if np.any(hit2):
                gi = idx[hit2]
                total_d = t[gi] + t2[hit2]
                bins2 = bin_index(total_d, layout) - 1
                to_sonar = points2[hit2] - origin[None, :]
                to_sonar /= np.linalg.norm(to_sonar, axis=1, keepdims=True)
                bp_r2 = _beam_weights(to_sonar, pose, beam, sonar, c)
                tl2 = 10.0 ** (-transmission_loss(total_d, alpha_w) / 10.0)
                patch2 = ray_patch_area(total_d, grazing2[hit2], n_rays)
                coeff2 = _boundary_coeff_linear(
                    kind2[hit2], grazing2[hit2], roughness2[hit2], env, f
                )
                value2 = sl_fac * tl2 * bp_t[gi] * bp_r2 * coeff2 * patch2
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
    mean = 10.0 ** (level / 10.0)
    noise = rng.exponential(mean, ping_return.layout.num_bins)
    return replace(ping_return, noise=noise)
