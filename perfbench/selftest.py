"""Self-tests of the benchmark: its checks must catch broken outputs and its
self-time arithmetic must add up.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import types
import unittest

import numpy as np
import yaml

import hostspeed
import spans as sp
import workloads as wl

flsim = wl.import_flsim()
from flsim import runner  # noqa: E402


def fake_nulls(reference: dict, shift_db: float = 0.0, bin_index: int = 10) -> dict:
    out = {}
    for name, curve in reference.items():
        total = np.array([-np.inf if v is None else v for v in curve])
        total[bin_index] += shift_db
        out[name] = types.SimpleNamespace(total_db=total)
    return out


def mesh_pings(seed: int, center) -> dict:
    """One 20k-ray ping of mesh_sim's scenario with the obstacle at center."""
    doc = wl.document(wl.WORKLOADS["mesh_sim"], seed, center)
    scenario = runner.with_overrides(flsim.loads(yaml.safe_dump(doc)), pings=1)
    return scenario, runner.simulate(scenario)


class SelfTimes(unittest.TestCase):
    def spans(self):
        # runner [0, 10] > nullmodel [1, 4], raysim [5, 9] > raysim [6, 7]
        return [
            sp.Span(1, 0, "nullmodel.expected_null", 1.0, 4.0, "g"),
            sp.Span(3, 2, "raysim.trace_primary", 6.0, 7.0, "g"),
            sp.Span(2, 0, "raysim.ping", 5.0, 9.0, "g"),
            sp.Span(0, None, "runner.run_detect", 0.0, 10.0, "g"),
        ]

    def test_by_layer(self):
        got = sp.self_times(self.spans())
        self.assertEqual(got, {"runner": 3.0, "nullmodel": 3.0, "raysim": 4.0})
        self.assertAlmostEqual(sum(got.values()), 10.0)

    def test_by_name(self):
        got = sp.self_times(self.spans(), by_name=True)
        self.assertEqual(got["raysim.ping"], 3.0)
        self.assertEqual(got["raysim.trace_primary"], 1.0)

    def test_tracer_nests_wrapped_calls_and_patch_is_undone(self):
        ticks = iter(range(100))
        tracer = sp.Tracer(clock=lambda: float(next(ticks)))
        module = types.SimpleNamespace(inner=lambda x: x + 1)
        module.outer = lambda x: module.inner(x) * 2

        def count(tr, result, args, kwargs):
            tr.count("calls", 1)

        original = module.inner
        targets = [
            (module, "inner", lambda f: tracer.wrapped(f, "b.inner", count)),
            (module, "outer", lambda f: tracer.wrapped(f, "a.outer")),
            (module, "missing", lambda f: tracer.wrapped(f, "never")),
        ]
        with sp.patched(targets):
            self.assertEqual(module.outer(1), 4)
        self.assertIs(module.inner, original)
        self.assertFalse(hasattr(module, "missing"))
        inner, outer = tracer.spans
        self.assertEqual((inner.name, inner.parent), ("b.inner", outer.sid))
        self.assertEqual(sp.self_times(tracer.spans), {"a": 2.0, "b": 1.0})
        self.assertEqual(tracer.counts[""]["calls"], 1)


class HostSpeed(unittest.TestCase):
    def test_factor_brings_seconds_to_the_reference_speed(self):
        ref = hostspeed.REFERENCE_S
        self.assertAlmostEqual(hostspeed.factor([ref] * 3), 1.0)
        # A host at half speed on average over the probes around a phase:
        # 2 s measured are 1 s at the reference speed.
        self.assertAlmostEqual(2.0 * hostspeed.factor([2 * ref, ref, 3 * ref]), 1.0)


class NullCheck(unittest.TestCase):
    reference = wl.load_reference("scenario1")

    def failed(self, nulls) -> int:
        checks = wl.Checks()
        wl.check_null(checks, nulls, self.reference)
        self.assertEqual(checks.attempted, len(self.reference))
        return checks.failed

    def test_within_tolerance_passes(self):
        self.assertEqual(self.failed(fake_nulls(self.reference, 0.005)), 0)

    def test_perturbed_reference_fails(self):
        self.assertEqual(self.failed(fake_nulls(self.reference, 0.02)), 1)

    def test_lost_response_fails(self):
        self.assertEqual(self.failed(fake_nulls(self.reference, -np.inf)), 1)

    def test_current_null_model_matches(self):
        nulls = runner.compute_null(flsim.load_scenario("scenario1"))
        self.assertEqual(self.failed(nulls), 0)


class ObstacleCheck(unittest.TestCase):
    seed = 7

    def failed(self, center) -> int:
        scenario, results = mesh_pings(self.seed, center)
        window = wl.flag_window(wl.WORKLOADS["mesh_sim"], self.seed, scenario)
        checks = wl.Checks()
        wl.check_object(checks, results, window)
        self.assertEqual(checks.attempted, 1)
        return checks.failed

    def test_placed_mesh_passes(self):
        self.assertEqual(self.failed(wl.mesh_center(self.seed)), 0)

    def test_mesh_behind_the_sonar_fails(self):
        self.assertEqual(self.failed((-15.0, 0.0, 10.0)), 1)

    def test_mesh_moved_along_the_beam_fails(self):
        self.assertEqual(self.failed(wl.mesh_center(self.seed) + (5.0, 0.0, 0.0)), 1)


class FlagCheck(unittest.TestCase):
    centers = np.arange(8) + 0.5

    def failed(self, decisions, window) -> int:
        dets = {"b": [types.SimpleNamespace(decisions=np.array(decisions))]}
        checks = wl.Checks()
        wl.check_flags(checks, dets, self.centers, window)
        return checks.failed

    def test_window(self):
        self.assertEqual(self.failed([0, 0, 0, 1, 0, 0, 0, 0], (3.0, 4.0)), 0)
        self.assertEqual(self.failed([1, 0, 0, 0, 0, 0, 0, 1], (3.0, 4.0)), 1)

    def test_no_flags(self):
        self.assertEqual(self.failed([0] * 8, None), 0)
        self.assertEqual(self.failed([0, 1, 0, 0, 0, 0, 0, 0], None), 1)


class Documents(unittest.TestCase):
    def test_icosphere(self):
        verts, faces = wl.icosphere(wl.MESH_SUBDIVISIONS)
        self.assertEqual(faces.shape, (320, 3))
        self.assertEqual(verts.shape, (162, 3))
        np.testing.assert_allclose(np.linalg.norm(verts, axis=1), 1.0)

    def test_seed_sets_run_seed_and_mesh_placement(self):
        mesh = wl.WORKLOADS["mesh_sim"]
        self.assertEqual(wl.document(mesh, 3), wl.document(mesh, 3))
        self.assertEqual(wl.document(mesh, 3)["run"]["seed"], 3)
        self.assertNotEqual(
            wl.document(mesh, 3)["scene"]["objects"],
            wl.document(mesh, 4)["scene"]["objects"],
        )
        for seed in range(50):
            offset = np.abs(wl.mesh_center(seed) - wl.MESH_CENTER_M)
            self.assertTrue(np.all(offset <= wl.MESH_JITTER_M))

    def test_iteration_seeds_are_fixed_by_the_seed_and_distinct(self):
        seeds = [wl.iteration_seed(3, i) for i in range(20)]
        self.assertEqual(seeds, [wl.iteration_seed(3, i) for i in range(20)])
        self.assertEqual(len(set(seeds)), 20)
        self.assertNotEqual(seeds[0], wl.iteration_seed(4, 0))


if __name__ == "__main__":
    unittest.main()
