"""Scenario files: strict YAML schema, bundled examples and scene assembly.

A scenario bundles the environment, the sonar, the vehicle pose, the scene
contents and the run, detection and comparison settings into one file.
Angles are degrees in files and radians in code.

The schema is one field table: each section lists its fields in order as
(key, coercer, default or REQUIRED), and a field whose coercer is itself a
table is a nested section. One walker applies a table to a node: it
rejects unknown keys, fills defaults and coerces every field, and each
error names the offending path. Nodes with a `type` (the bottom, the
objects) pick their table by type. Numbers must be finite.

A document is checked once, at load: the walk, then the typed components,
the bin layout and the scene are built from the normalized tree, so any
scenario that loads can run every command. The normalized tree is kept
verbatim for serialization, so a load of a serialized scenario reproduces
the scenario exactly.
"""

from __future__ import annotations

import math
import os
import re
import sys
from dataclasses import dataclass
from importlib import resources

import yaml

from .acoustics import BeamOrientation, EnvironmentParams, SonarConfig
from .geometry import SonarPose, layout_for
from .raysim import FlatBottom, Scene, TriangleMesh, box_mesh
from .detect import HypothesisModel
from .scatter import ObjectMaterial, volume_coeff

import numpy as np

BUNDLED_SCENARIOS = ("scenario1", "scenario2")


# ---------------------------------------------------------------------------
# Coercers: (value, path) -> checked value


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{path}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{path}: expected an integer, got {value!r}")
    return int(value)


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{path}: expected true or false, got {value!r}")
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{path}: expected a string, got {value!r}")
    return value


def _as_mapping(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _positive(value, path: str) -> float:
    number = _as_float(value, path)
    if number <= 0:
        raise ValueError(f"{path}: must be > 0, got {number}")
    return number


def _within(low: float, high: float):
    def coerce(value, path: str) -> float:
        number = _as_float(value, path)
        if not low <= number <= high:
            raise ValueError(f"{path}: must be in [{low}, {high}], got {number}")
        return number

    return coerce


def _int_at_least(low: int):
    def coerce(value, path: str) -> int:
        number = _as_int(value, path)
        if number < low:
            raise ValueError(f"{path}: must be >= {low}, got {number}")
        return number

    return coerce


def _list_of(item, expected: str, min_len: int = 0, max_len: float = math.inf):
    """Coercer for a list of min_len..max_len items, each coerced by item (a
    coercer or a field table); null is the empty list."""

    def coerce(value, path: str) -> list:
        items = [] if value is None else value
        if not isinstance(items, list) or not min_len <= len(items) <= max_len:
            raise ValueError(f"{path}: {expected}")
        return [_coerce(item, v, f"{path}[{i}]", i) for i, v in enumerate(items)]

    return coerce


def _variant(noun: str, default, tables: dict):
    """Coercer for a mapping whose `type` field (default `default`) picks
    its field table."""

    type_row = ("type", _as_str, default)

    def coerce(value, path: str) -> dict:
        node = _as_mapping(value, path)
        kind = _field(node, type_row, path)
        if kind not in tables:
            raise ValueError(f"{path}.type: unknown {noun} type {kind!r}")
        return _walk((type_row, *tables[kind]), node, path)

    return coerce


_VECTOR = _list_of(_as_float, "expected a list of 3 numbers", 3, 3)
_FACES = _list_of(
    _list_of(_as_int, "expected a list of 3 indices", 3, 3),
    "expected a non-empty list", 1,
)


def _window(value, path: str) -> list:
    low, high = _list_of(_as_float, "expected [low, high]", 2, 2)(value, path)
    if high <= low:
        raise ValueError(f"{path}: high must exceed low, got {value}")
    return [low, high]


def _beam_slug(name: str) -> str:
    """The stem a beam's output files carry in their names."""
    slug = re.sub(r"[^A-Za-z0-9]+", "_", name).strip("_")
    return slug or "beam"


def _beams(value, path: str) -> list:
    beams = _list_of(_BEAM, "expected a non-empty list", 1)(value, path)
    names = [b["name"] for b in beams]
    if len(set(names)) != len(names):
        raise ValueError(f"{path}: beam names must be unique, got {names}")
    seen = {}
    for name in names:
        slug = _beam_slug(name)
        if slug in seen:
            raise ValueError(f"{path}: beams {seen[slug]!r} and {name!r} write "
                             f"the same files ({slug})")
        seen[slug] = name
    return beams


# ---------------------------------------------------------------------------
# The field table. A callable default is called with the node's list index.

REQUIRED = object()

_ENVIRONMENT = (
    ("temperature_c", _as_float, REQUIRED),
    ("salinity_ppt", _as_float, REQUIRED),
    ("max_depth_m", _as_float, REQUIRED),
    ("ph", _as_float, 8.0),
    ("wind_knots", _as_float, 0.0),
    ("shipping_density", _as_float, 0.5),
    ("particle_density_db", _as_float, -70.0),
    ("bottom_type", _as_float, 2.0),
)
_BEAM = (
    ("name", _as_str, "beam{}".format),
    ("pitch_deg", _as_float, 0.0),
    ("yaw_deg", _as_float, 0.0),
)
_SONAR = (
    ("frequency_khz", _as_float, REQUIRED),
    ("bandwidth_hz", _as_float, REQUIRED),
    ("source_level_db", _as_float, 0.0),
    ("ping_rate_hz", _as_float, REQUIRED),
    ("horizontal_len_m", _as_float, REQUIRED),
    ("vertical_len_m", _as_float, REQUIRED),
    ("bin_length_m", _as_float, REQUIRED),
    ("num_rays", _as_int, 20000),
    ("beams", _beams, [{"name": "forward"}]),
)
_POSE = (
    ("altitude_m", _as_float, REQUIRED),
    # sound speed is taken at this depth, and its formula holds to 1000 m
    ("depth_m", _within(0.0, 1000.0), REQUIRED),
    ("pitch_deg", _as_float, 0.0),
)
_TRANSMITTER = (
    ("pitch_deg", _as_float, 0.0),
    ("yaw_deg", _as_float, 0.0),
)
_BOTTOM = _variant("bottom", "flat", {
    "flat": (),
    "none": (),
    "step": (
        ("distance_m", _as_float, REQUIRED),
        ("rise_m", _as_float, REQUIRED),
    ),
})
_OBJECT = _variant("object", REQUIRED, {
    "box": (
        ("center_m", _VECTOR, REQUIRED),
        ("size_m", _VECTOR, REQUIRED),
        ("rms_roughness", _as_float, 3.0),
    ),
    "mesh": (
        ("vertices", _list_of(_VECTOR, "expected a list of at least 3 points", 3),
         REQUIRED),
        ("faces", _FACES, REQUIRED),
        ("rms_roughness", _as_float, 3.0),
    ),
})
_SCENE = (
    ("bottom", _BOTTOM, {"type": "flat"}),
    ("surface", _as_bool, True),
    ("volume", _as_bool, True),
    ("objects", _list_of(_OBJECT, "expected a list"), []),
)
_RUN = (
    ("num_pings", _int_at_least(1), 1),
    ("noise_enabled", _as_bool, True),
    ("seed", _int_at_least(0), 0),
)
_DETECT = (
    ("sigma_db", _positive, 3.0),
    ("alt_offset_db", _as_float, 6.0),
    ("gamma", _as_float, 10.0),
)
_COMPARE = (
    ("window_m", _window, [0.0, 20.0]),
    ("max_gap_db", _positive, 3.0),
    ("min_expected_db", _as_float, -120.0),
)
_SCENARIO = (
    ("environment", _ENVIRONMENT, REQUIRED),
    ("sonar", _SONAR, REQUIRED),
    ("pose", _POSE, REQUIRED),
    ("transmitter", _TRANSMITTER, {}),
    ("scene", _SCENE, {}),
    ("run", _RUN, {}),
    ("detect", _DETECT, {}),
    ("compare", _COMPARE, {}),
)


# ---------------------------------------------------------------------------
# The walker: raw mapping -> fully defaulted, coerced mapping


def _coerce(spec, value, path: str, index=None):
    if isinstance(spec, tuple):
        return _walk(spec, value, path, index)
    return spec(value, path)


def _field(node: dict, row: tuple, path: str, index=None):
    key, spec, default = row
    if key in node:
        value = node[key]
    elif default is REQUIRED:
        what = "section" if isinstance(spec, tuple) else "key"
        raise ValueError(f"{path}: missing required {what} {key!r}")
    else:
        value = default(index) if callable(default) else default
    return _coerce(spec, value, f"{path}.{key}")


def _walk(table: tuple, node, path: str, index=None) -> dict:
    node = _as_mapping(node, path)
    unknown = set(node) - {key for key, _, _ in table}
    if unknown:
        raise ValueError(f"{path}: unknown key {min(unknown, key=str)!r}")
    return {row[0]: _field(node, row, path, index) for row in table}


def normalize(data) -> dict:
    """Validate a parsed scenario document and fill every default."""
    return _walk(_SCENARIO, data, "scenario")


# ---------------------------------------------------------------------------
# Scenario object


@dataclass(frozen=True, eq=False)
class Scenario:
    """A normalized scenario document and the components built from it."""

    raw: dict
    env: EnvironmentParams
    sonar: SonarConfig
    pose: SonarPose

    def __eq__(self, other):
        if not isinstance(other, Scenario):
            return NotImplemented
        return self.raw == other.raw

    @property
    def num_pings(self) -> int:
        return self.raw["run"]["num_pings"]

    @property
    def noise_enabled(self) -> bool:
        return self.raw["run"]["noise_enabled"]

    @property
    def seed(self) -> int:
        return self.raw["run"]["seed"]

    @property
    def detect_params(self) -> dict:
        return dict(self.raw["detect"])

    @property
    def compare_params(self) -> dict:
        return dict(self.raw["compare"])


def _at(path: str, build, *args, **kwargs):
    """build(*args, **kwargs), with path put in front of its ValueError."""
    try:
        return build(*args, **kwargs)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _orientation(node: dict, name: str) -> BeamOrientation:
    return BeamOrientation(
        pitch_rad=math.radians(node["pitch_deg"]),
        yaw_rad=math.radians(node["yaw_deg"]),
        name=name,
    )


def _sonar(node: dict, transmitter: dict) -> SonarConfig:
    """The sonar section, with the document's top-level transmitter."""
    beams = tuple(_orientation(b, b["name"]) for b in node["beams"])
    fields = {k: v for k, v in node.items() if k != "beams"}
    return SonarConfig(beams=beams,
                       transmitter=_orientation(transmitter, "transmitter"),
                       **fields)


def _build(normalized: dict) -> Scenario:
    """The typed components of a normalized document. The bin layout, the
    scene, the volume coefficient and the detector's model are built too, so
    that every error shows at load."""
    pose_node = normalized["pose"]
    env = _at("scenario.environment", EnvironmentParams,
              depth_m=pose_node["depth_m"], **normalized["environment"])
    sonar = _at("scenario.sonar", _sonar, normalized["sonar"],
                normalized["transmitter"])
    pose = _at(
        "scenario.pose", SonarPose,
        altitude_m=pose_node["altitude_m"],
        depth_m=pose_node["depth_m"],
        pitch_rad=math.radians(pose_node["pitch_deg"]),
    )
    scenario = Scenario(raw=normalized, env=env, sonar=sonar, pose=pose)
    _at("scenario.environment", volume_coeff, env.particle_density_db,
        sonar.frequency_khz)
    detect = normalized["detect"]
    _at("scenario.detect", HypothesisModel, null_mean_db=(),
        sigma_db=detect["sigma_db"], alt_offset_db=detect["alt_offset_db"])
    _at("scenario.sonar", layout_for, env, sonar)
    build_scene(scenario)
    return scenario


def loads(text: str) -> Scenario:
    """Parse and validate a scenario document from YAML text."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as err:
        raise ValueError(f"scenario: invalid YAML ({err})") from None
    return _build(normalize(data))


def load_scenario(path_or_name: str) -> Scenario:
    """Load a scenario from a file path or a bundled scenario name."""
    if os.path.isfile(path_or_name):
        with open(path_or_name, "r", encoding="utf-8") as handle:
            return loads(handle.read())
    if path_or_name in BUNDLED_SCENARIOS:
        text = (
            resources.files("flsim") / "scenarios" / f"{path_or_name}.yaml"
        ).read_text(encoding="utf-8")
        return loads(text)
    raise ValueError(
        f"scenario {path_or_name!r} is neither a file nor one of the bundled "
        f"scenarios {list(BUNDLED_SCENARIOS)}"
    )


def serialize(scenario: Scenario) -> str:
    """YAML text of the normalized scenario; loads back to an equal one."""
    return yaml.safe_dump(scenario.raw, sort_keys=False)


# Width along x of a step's ramp: the spacing of the grid that step bottoms
# were once built on, kept so that scenario2's rise stays where it was.
STEP_RAMP_M = 0.5


def _bottom(spec: dict, base_depth: float, end_m: float):
    """The scene's bottom. A step is deep up to x_a = distance_m, rises
    linearly to base - rise_m at x_b = x_a + STEP_RAMP_M, and stays there:
    three planar quads that reach 1 m further than end_m from the sonar (at
    x = y = 0) and from the ramp, past any point that a ray or its bounce
    reaches. A distance_m beyond that reach puts the ramp at its edge.

    Each quad is two opposed wedges: a triangle with one side along y, from
    -2 reach to 2 reach, at one end of the quad and its apex at y = 0 on the
    other end. Between them they cover |y| <= reach. A side along y makes
    Moller-Trumbore's t and normal independent of the ray's y, so the step,
    which is its own mirror image in y -> -y, gives mirrored rays
    bit-identical hits."""
    if spec["type"] == "flat":
        return FlatBottom(depth_m=base_depth)
    if spec["type"] == "none":
        return None
    rise = spec["rise_m"]
    shallow = base_depth - rise
    if shallow <= 0:
        raise ValueError(
            f"rise_m {rise} reaches the surface (sea floor at {base_depth} m)"
        )
    reach = end_m + 1.0
    # No ray tells a ramp beyond the reach from one at its edge, and there
    # the vertices stay small enough for Moller-Trumbore not to overflow.
    x_a = min(max(spec["distance_m"], -reach - STEP_RAMP_M), reach)
    x_b = x_a + STEP_RAMP_M
    xs = (min(x_a, 0.0) - reach, x_a, x_b, max(x_b, 0.0) + reach)
    zs = (base_depth, base_depth, shallow, shallow)
    # vertex 3i + k lies at xs[i], y = (k - 1) * 2 reach
    vertices = [(x, y, z) for x, z in zip(xs, zs)
                for y in (-2.0 * reach, 0.0, 2.0 * reach)]
    faces = [f for i in (0, 3, 6)
             for f in ((i, i + 4, i + 2), (i + 3, i + 1, i + 5))]
    return TriangleMesh(vertices=vertices, faces=faces)


def _object(spec: dict, sonar_depth: float):
    material = ObjectMaterial(rms_roughness=spec["rms_roughness"])
    if spec["type"] == "mesh":
        return TriangleMesh(vertices=spec["vertices"], faces=spec["faces"],
                            material=material)
    mesh = box_mesh(spec["center_m"], spec["size_m"], material)
    # The model puts the sonar in open water; a sonar inside a solid
    # obstacle, or on its boundary, is outside it.
    sonar = np.array([0.0, 0.0, sonar_depth])
    half = 0.5 * np.asarray(spec["size_m"])
    center = np.asarray(spec["center_m"])
    if np.all((center - half <= sonar) & (sonar <= center + half)):
        raise ValueError(f"box encloses the sonar at (0, 0, {sonar_depth})")
    return mesh


def build_scene(scenario: Scenario) -> Scene:
    """Assemble the traced scene from the scenario's scene section; a box
    becomes its 12-triangle mesh. An error names the path of the bottom or
    object it came from, a box that encloses the sonar included."""
    spec = scenario.raw["scene"]
    pose = scenario.pose
    base_depth = pose.depth_m + pose.altitude_m
    end_m = layout_for(scenario.env, scenario.sonar).end_m
    return Scene(
        env=scenario.env,
        bottom=_at("scenario.scene.bottom", _bottom, spec["bottom"], base_depth,
                   end_m),
        surface_enabled=spec["surface"],
        volume_enabled=spec["volume"],
        objects=tuple(
            _at(f"scenario.scene.objects[{i}]", _object, obj, pose.depth_m)
            for i, obj in enumerate(spec["objects"])
        ),
    )
