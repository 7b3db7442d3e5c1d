"""Fuzz and round-trip of the scenario loader: any document either loads,
and then its scene and bin layout build, or raises a ValueError that names
its path; a loaded scenario serializes to a fixed point."""

import copy
import math
import tempfile
from importlib import resources

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from flsim import build_scene, layout_for, loads, serialize


# database=None stores no examples, but from collection on Hypothesis
# caches the constants it finds in local source files under its home
# directory, ./.hypothesis by default; keep that cache out of the tree.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory()
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def _bundled(name):
    text = (resources.files("flsim") / "scenarios" / f"{name}.yaml").read_text(
        encoding="utf-8")
    return yaml.safe_load(text)


def _with_objects():
    doc = _bundled("scenario1")
    doc["scene"]["objects"] = [
        {"type": "box", "center_m": [15.0, 0.0, 10.0], "size_m": [2.0, 2.0, 2.0]},
        {"type": "mesh", "rms_roughness": 2.5,
         "vertices": [[20.0, 0.0, 9.0], [21.0, 0.0, 10.0], [20.0, 1.0, 10.0],
                      [20.0, -1.0, 10.0]],
         "faces": [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]]},
    ]
    return doc


BASES = (_bundled("scenario1"), _bundled("scenario2"), _with_objects())
LEAVES = ("x", True, None, [1.0], {"a": 1}, 0, 0.0, -1, -0.5, 1.5,
          math.nan, math.inf, -math.inf)
KINDS = ("flat", "none", "step", "box", "mesh", "ramp")


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def documents(draw):
    """A bundled document with one to three mutations: a key dropped, an
    unknown key added, a node replaced by a wrong value, or a bottom or
    object switched to another type."""
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        node = _get(doc, path)
        op = draw(st.sampled_from(("drop", "unknown", "set", "type")))
        if op == "unknown" and isinstance(node, dict):
            node["chirp"] = True
        elif op == "type" and isinstance(node, dict):
            node["type"] = draw(st.sampled_from(KINDS))
        elif op == "drop" and path and isinstance(_get(doc, path[:-1]), dict):
            del _get(doc, path[:-1])[path[-1]]
        elif path:
            _get(doc, path[:-1])[path[-1]] = copy.deepcopy(draw(st.sampled_from(LEAVES)))
    return doc


def _check_round_trip(scenario):
    text = serialize(scenario)
    again = loads(text)
    assert again == scenario
    assert serialize(again) == text


@settings(derandomize=True, database=None, deadline=None, max_examples=250)
@given(documents())
def test_any_document_loads_and_builds_or_names_its_error(doc):
    try:
        scenario = loads(yaml.safe_dump(doc, sort_keys=False))
    except ValueError as err:
        assert str(err).startswith("scenario"), str(err)
        return
    build_scene(scenario)
    layout_for(scenario.env, scenario.sonar)
    _check_round_trip(scenario)


def test_bundled_documents_round_trip():
    for doc in BASES:
        _check_round_trip(loads(yaml.safe_dump(doc, sort_keys=False)))
