"""Contrast self-test: every layer is busy where the benchmark says it
works and idle where it predicts no change.

    python3 perfbench/selftest.py        # ~1 minute

Runs each workload once, shortened (``build_specs(small=True)``) and
traced, in a fresh process, then asserts the "predicted no change" cells
of the layer table in ``README.md``.  A layer that stops being exercised
on its own workload — or starts being exercised on another — fails here
loudly instead of quietly reading "no change" in a later comparison.
"""

from __future__ import annotations

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import run_child  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1


def self_share(layers: dict, layer: str) -> float:
    total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    return layers[f"{layer}.self_s"] / total


class ContrastTest(unittest.TestCase):
    reports: dict = {}

    @classmethod
    def setUpClass(cls):
        cls.reports = {w: run_child(w, SEED, traced=True, small=True)
                       for w in WORKLOADS}
        cls.layers = {w: r["layers"] for w, r in cls.reports.items()}

    def test_outputs_pass_their_checks(self):
        for workload, report in self.reports.items():
            for run in report["runs"]:
                self.assertEqual(run["problems"], [], workload)

    def test_stitching_only_where_blocks_vary(self):
        self.assertGreater(self.layers["train-replay"]["core.gmlake.stitches"], 0)
        # paged-shared KV reaches the allocator at a few fixed sizes.
        self.assertEqual(self.layers["serve-fleet"]["core.gmlake.stitches"], 0)

    def test_caching_allocator_in_every_workload(self):
        # GMLake's small pool is a caching allocator.
        for workload, layers in self.layers.items():
            self.assertGreater(layers["allocators.caching.calls"], 0, workload)

    def test_training_has_no_serving_work(self):
        layers = self.layers["train-replay"]
        self.assertEqual(layers["serve.simulator.ticks"], 0)
        for name, value in layers.items():
            if name.startswith("serve.") and name.endswith(".calls"):
                self.assertEqual(value, 0, name)
        self.assertGreater(layers["sim.calls"], 0)
        self.assertGreater(layers["workloads.calls"], 0)

    def test_serving_has_no_replay_work(self):
        for workload in ("serve-replica", "serve-fleet", "serve-disagg"):
            layers = self.layers[workload]
            self.assertGreater(layers["serve.simulator.ticks"], 0, workload)
            self.assertEqual(layers["sim.calls"], 0, workload)
            self.assertEqual(layers["workloads.calls"], 0, workload)

    def test_observability_only_on_the_fleet(self):
        for workload, layers in self.layers.items():
            for layer in ("obs.trace", "obs.gauges", "obs.sink"):
                calls = layers[f"{layer}.calls"]
                if workload == "serve-fleet":
                    self.assertGreater(calls, 0, layer)
                else:
                    self.assertEqual(calls, 0, f"{layer} on {workload}")
        self.assertGreater(self.layers["serve-fleet"]["obs.trace.events"], 0)

    def test_fleet_orchestrator_only_on_the_fleet(self):
        self.assertGreater(
            self_share(self.layers["serve-fleet"], "serve.cluster"), 0.05)
        for workload in ("train-replay", "serve-replica"):
            self.assertEqual(self.layers[workload]["serve.cluster.calls"], 0)
            self.assertEqual(self.layers[workload]["serve.cluster.self_s"], 0)
        # Disaggregated serving dispatches onto its prefill fleet with the
        # fleet dispatcher; that is all the fleet layer may do there.
        self.assertLess(
            self_share(self.layers["serve-disagg"], "serve.cluster"), 0.01)

    def test_disaggregation_only_on_disagg(self):
        layers = self.layers["serve-disagg"]
        self.assertGreater(layers["serve.disagg.calls"], 0)
        self.assertGreater(layers["serve.interconnect.migrated_mb"], 0)
        for workload in ("train-replay", "serve-replica", "serve-fleet"):
            self.assertEqual(self.layers[workload]["serve.disagg.calls"], 0)
            self.assertEqual(
                self.layers[workload]["serve.interconnect.migrated_mb"], 0)

    def test_memory_tiers_only_on_the_replica(self):
        self.assertGreater(self.layers["serve-replica"]["serve.memtier.calls"], 0)
        for workload in ("train-replay", "serve-fleet", "serve-disagg"):
            self.assertEqual(self.layers[workload]["serve.memtier.calls"], 0)

    def test_layers_account_for_the_traced_time(self):
        for workload, report in self.reports.items():
            attributed = sum(v for k, v in report["layers"].items()
                             if k.endswith(".self_s"))
            self.assertGreaterEqual(attributed / report["wall_s"], 0.9,
                                    workload)


if __name__ == "__main__":
    unittest.main()
