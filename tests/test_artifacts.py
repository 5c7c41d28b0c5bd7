"""Tests for deployment-artifact serialization."""

import numpy as np
import pytest

from repro.core.artifacts import ARTIFACT_VERSION, DeploymentArtifact
from repro.core.obfuscator.injector import default_noise_segment
from repro.cpu.signals import NUM_SIGNALS, Signal


@pytest.fixture()
def artifact():
    return DeploymentArtifact(
        processor_model="amd-epyc-7252",
        vulnerable_events=["RETIRED_UOPS", "LS_DISPATCH"],
        mutual_information_bits=[2.1, 1.7],
        covering_gadgets=["[(none) | PADDB xmm,xmm]"],
        segment_signals=default_noise_segment(),
        reference_event="RETIRED_UOPS",
        sensitivity=1.5e6,
        mechanism="laplace",
        epsilon=0.5,
        clip_bound=np.inf,
    )


class TestRoundTrip:
    def test_json_round_trip(self, artifact):
        restored = DeploymentArtifact.from_json(artifact.to_json())
        assert restored.processor_model == artifact.processor_model
        assert restored.vulnerable_events == artifact.vulnerable_events
        assert restored.sensitivity == artifact.sensitivity
        assert np.allclose(restored.segment_signals,
                           artifact.segment_signals)
        assert np.isinf(restored.clip_bound)

    def test_file_round_trip(self, artifact, tmp_path):
        path = tmp_path / "aegis.json"
        artifact.save(path)
        restored = DeploymentArtifact.load(path)
        assert restored.epsilon == artifact.epsilon
        assert restored.covering_gadgets == artifact.covering_gadgets

    def test_finite_clip_bound_round_trip(self, artifact):
        artifact.clip_bound = 2e4
        restored = DeploymentArtifact.from_json(artifact.to_json())
        assert restored.clip_bound == 2e4

    def test_version_check(self, artifact):
        import json
        payload = json.loads(artifact.to_json())
        payload["version"] = ARTIFACT_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            DeploymentArtifact.from_json(json.dumps(payload))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DeploymentArtifact(
                processor_model="amd-epyc-7252", vulnerable_events=[],
                mutual_information_bits=[], covering_gadgets=[],
                segment_signals=np.zeros(3),
                reference_event="RETIRED_UOPS", sensitivity=1.0,
                mechanism="laplace", epsilon=1.0, clip_bound=np.inf)

    def test_alignment_validation(self):
        with pytest.raises(ValueError, match="align"):
            DeploymentArtifact(
                processor_model="amd-epyc-7252",
                vulnerable_events=["A"],
                mutual_information_bits=[], covering_gadgets=[],
                segment_signals=default_noise_segment(),
                reference_event="RETIRED_UOPS", sensitivity=1.0,
                mechanism="laplace", epsilon=1.0, clip_bound=np.inf)


class TestInstantiation:
    def test_build_obfuscator(self, artifact):
        obfuscator = artifact.build_obfuscator(rng=0)
        assert obfuscator.epsilon == 0.5
        matrix = np.zeros((10, NUM_SIGNALS))
        out = obfuscator.obfuscate_matrix(matrix, 0.01)
        assert np.all(out[:, Signal.UOPS] >= 0)

    def test_accountant_state_survives_round_trip(self, artifact,
                                                  tmp_path):
        # Spend budget, checkpoint, reload: accounting must carry over.
        obfuscator = artifact.build_obfuscator(rng=0)
        obfuscator.obfuscate_matrix(np.zeros((10, NUM_SIGNALS)), 0.01)
        assert obfuscator.accountant.releases == 10
        artifact.update_budget(obfuscator)
        path = tmp_path / "aegis.json"
        artifact.save(path)
        restored = DeploymentArtifact.load(path).build_obfuscator(rng=1)
        assert restored.accountant.releases == 10
        assert restored.accountant.statement() \
            == obfuscator.accountant.statement()
        restored.obfuscate_matrix(np.zeros((5, NUM_SIGNALS)), 0.01)
        assert restored.accountant.releases == 15

    def test_artifact_without_accountant_state_is_fresh(self, artifact):
        # Pre-telemetry artifacts (no accountant_state) still load.
        import json
        payload = json.loads(artifact.to_json())
        payload.pop("accountant_state", None)
        obfuscator = DeploymentArtifact.from_json(
            json.dumps(payload)).build_obfuscator(rng=0)
        assert obfuscator.accountant.releases == 0

    def test_from_deployment_round_trip(self):
        # Exercise the full offline pipeline -> artifact -> obfuscator.
        from repro.core import Aegis
        from repro.workloads import WebsiteWorkload
        workload = WebsiteWorkload()
        aegis = Aegis(workload, epsilon=0.5, runs_per_secret=4,
                      gadget_budget=300, rng=17)
        deployment = aegis.deploy(secrets=workload.secrets[:4])
        artifact = DeploymentArtifact.from_deployment(deployment)
        restored = DeploymentArtifact.from_json(artifact.to_json())
        obfuscator = restored.build_obfuscator(rng=1)
        assert obfuscator.mechanism.sensitivity \
            == deployment.obfuscator.mechanism.sensitivity
        assert len(restored.covering_gadgets) \
            == deployment.covering_gadgets

    def test_deploy_artifact_identical_across_workers(self):
        # Screening shards and confirmation both draw from per-gadget
        # derived streams, so the worker count cannot change a byte.
        from repro.core import Aegis
        from repro.workloads import WebsiteWorkload
        workload = WebsiteWorkload()
        documents = set()
        for workers in (1, 2, 4):
            aegis = Aegis(workload, epsilon=0.5, runs_per_secret=3,
                          gadget_budget=240, mi_threshold_bits=1.0,
                          workers=workers, shard_size=40, rng=23)
            deployment = aegis.deploy(secrets=workload.secrets[:4])
            assert deployment.covering_gadgets > 0
            documents.add(
                DeploymentArtifact.from_deployment(deployment).to_json())
        assert len(documents) == 1
