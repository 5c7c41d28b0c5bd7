"""Tests for the synthetic guest workloads."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.cpu.signals import NUM_SIGNALS, Signal
from repro.workloads import (
    ALEXA_SITES,
    DNN_MODELS,
    DnnWorkload,
    InstructionMix,
    KeystrokeWorkload,
    RsaSignWorkload,
    WebsiteWorkload,
)
from repro.workloads.base import Phase, PhaseProgram, idle_mix
from repro.workloads.dnn import Layer, LayerKind


class TestInstructionMix:
    def test_rate_vector_consistency(self):
        mix = InstructionMix(ips=1e9, load_ratio=0.3, store_ratio=0.1)
        rates = mix.rate_vector()
        assert rates[Signal.INSTRUCTIONS] == pytest.approx(1e9)
        assert rates[Signal.L1D_ACCESS] == pytest.approx(
            rates[Signal.LOADS] + rates[Signal.STORES])
        assert rates[Signal.L2_ACCESS] == pytest.approx(
            rates[Signal.L1D_MISS])
        assert rates[Signal.MEM_READS] == pytest.approx(
            rates[Signal.LLC_MISS])

    def test_scaled(self):
        mix = InstructionMix(ips=1e9)
        assert mix.scaled(0.5).ips == pytest.approx(5e8)

    def test_rejects_negative_ips(self):
        with pytest.raises(ValueError):
            InstructionMix(ips=-1.0).rate_vector()


class TestPhaseProgram:
    def test_render_covers_window(self, rng):
        program = PhaseProgram(phases=[
            Phase("a", InstructionMix(ips=1e9), 0.5, duration_jitter=0.0,
                  intensity_jitter=0.0)])
        blocks = program.render_blocks(1.0, 0.01, rng)
        assert len(blocks) == 100
        assert all(b.signals.shape == (NUM_SIGNALS,) for b in blocks)

    def test_phase_mass_concentrated_early(self, rng):
        program = PhaseProgram(phases=[
            Phase("a", InstructionMix(ips=1e9), 0.2, duration_jitter=0.0,
                  intensity_jitter=0.0)])
        blocks = program.render_blocks(1.0, 0.01, rng)
        active = sum(b.signals[Signal.INSTRUCTIONS] for b in blocks[:25])
        idle = sum(b.signals[Signal.INSTRUCTIONS] for b in blocks[50:])
        assert active > 10 * idle

    def test_phase_labels_align(self, rng):
        program = PhaseProgram(phases=[
            Phase("first", InstructionMix(ips=1e9), 0.3,
                  duration_jitter=0.0, intensity_jitter=0.0),
            Phase("second", InstructionMix(ips=1e9), 0.3,
                  duration_jitter=0.0, intensity_jitter=0.0)])
        _, labels = program.render_blocks_with_phases(1.0, 0.01, rng)
        assert labels[5] == "first"
        assert labels[45] == "second"
        assert labels[90] == ""

    def test_rejects_bad_window(self, rng):
        with pytest.raises(ValueError):
            PhaseProgram().render_blocks(0.0, 0.01, rng)

    def test_rejects_bad_mix_past_window(self, rng):
        program = PhaseProgram(phases=[
            Phase("a", InstructionMix(ips=1e9), 0.5, duration_jitter=0.0,
                  intensity_jitter=0.0),
            Phase("bad", InstructionMix(ips=-1.0), 0.5,
                  duration_jitter=0.0, intensity_jitter=0.0)])
        with pytest.raises(ValueError, match="ips"):
            program.render_blocks(0.1, 0.01, rng)


class TestWebsiteWorkload:
    def test_45_sites(self):
        assert len(ALEXA_SITES) == 45
        assert len(WebsiteWorkload().secrets) == 45

    def test_signatures_deterministic(self, rng):
        w1, w2 = WebsiteWorkload(), WebsiteWorkload()
        p1 = w1.program_for("google.com", rng)
        p2 = w2.program_for("google.com", rng)
        assert [(ph.name, ph.mix.ips, ph.duration_s) for ph in p1.phases] \
            == [(ph.name, ph.mix.ips, ph.duration_s) for ph in p2.phases]

    def test_sites_differ(self, rng):
        w = WebsiteWorkload()
        a = w.program_for("google.com", rng)
        b = w.program_for("youtube.com", rng)
        ips_a = [ph.mix.ips for ph in a.phases]
        ips_b = [ph.mix.ips for ph in b.phases]
        assert ips_a != ips_b

    def test_unknown_secret_rejected(self, rng):
        with pytest.raises(ValueError):
            WebsiteWorkload().generate_blocks("not-a-site.example", rng)

    def test_blocks_shape(self, rng):
        blocks = WebsiteWorkload().generate_blocks(
            "google.com", rng, duration_s=1.0, slice_s=0.01)
        assert len(blocks) == 100

    def test_signature_tables_shared(self):
        a, b = WebsiteWorkload(), WebsiteWorkload()
        table = a._signatures["google.com"]
        assert table is b._signatures["google.com"]
        assert isinstance(table, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            table[0].duration_s = 1.0

    def test_custom_sites(self, rng):
        w = WebsiteWorkload(sites=("example.org", "google.com"))
        assert w.secrets == ["example.org", "google.com"]
        assert w._signatures["google.com"] \
            is WebsiteWorkload()._signatures["google.com"]
        assert len(w.generate_blocks("example.org", rng, duration_s=0.1,
                                     slice_s=0.01)) == 10
        with pytest.raises(ValueError):
            w.generate_blocks("youtube.com", rng)
        with pytest.raises(ValueError):
            w.program_for("youtube.com", rng)

    def test_programs_independent(self, rng):
        mine = WebsiteWorkload().program_for("google.com", rng)
        theirs = WebsiteWorkload().program_for("google.com", rng)
        nominal = list(theirs.phases)
        mine.phases.pop()
        mine.phases[0] = Phase("tampered", idle_mix(), 9.0)
        assert theirs.phases == nominal
        assert WebsiteWorkload().program_for("google.com", rng).phases \
            == nominal


class TestKeystrokeWorkload:
    def test_secrets_zero_to_nine(self):
        assert KeystrokeWorkload().secrets == list(range(10))

    def test_zero_keys_is_idle(self, rng):
        blocks = KeystrokeWorkload().generate_blocks(0, rng)
        total = sum(b.signals[Signal.INSTRUCTIONS] for b in blocks)
        idle_total = idle_mix().rate_vector()[Signal.INSTRUCTIONS] * 3.0
        assert total == pytest.approx(idle_total, rel=0.25)

    def test_activity_scales_with_keys(self, rng):
        w = KeystrokeWorkload()
        totals = []
        for k in (1, 5, 9):
            blocks = w.generate_blocks(k, np.random.default_rng(k))
            totals.append(sum(b.signals[Signal.INSTRUCTIONS] for b in blocks))
        assert totals[0] < totals[1] < totals[2]

    def test_out_of_range_secret(self, rng):
        with pytest.raises(ValueError):
            KeystrokeWorkload().generate_blocks(15, rng)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            KeystrokeWorkload(max_keys=-1)
        with pytest.raises(ValueError):
            KeystrokeWorkload(burst_s=0.0)


class TestDnnWorkload:
    def test_thirty_models(self):
        assert len(DNN_MODELS) == 30
        assert len(DnnWorkload().secrets) == 30

    def test_layer_sequences_distinct(self):
        w = DnnWorkload()
        sequences = {m: tuple(w.layer_sequence(m)) for m in w.secrets}
        assert len(set(sequences.values())) >= 25  # near-all distinct

    def test_resnet_has_residual_adds(self):
        seq = DnnWorkload().layer_sequence("resnet18")
        assert LayerKind.ADD in seq
        assert seq[-1] is LayerKind.FC

    def test_vit_is_attention_based(self):
        seq = DnnWorkload().layer_sequence("vit_b_16")
        assert seq.count(LayerKind.ATTENTION) == 12

    def test_inference_fits_in_window(self):
        w = DnnWorkload()
        longest = max(w.inference_seconds(m) for m in w.secrets)
        assert longest < w.default_duration_s

    def test_unknown_model(self, rng):
        w = DnnWorkload()
        with pytest.raises(KeyError):
            w.layer_sequence("resnet9000")
        with pytest.raises(ValueError):
            w.generate_blocks("resnet9000", rng)

    def test_layer_cost_validation(self):
        with pytest.raises(ValueError):
            Layer(LayerKind.CONV, 0.0)

    def test_frame_labels_follow_layers(self, rng):
        w = DnnWorkload()
        _, labels = w.generate_blocks_with_phases(
            "alexnet", rng, duration_s=1.0, slice_s=0.005)
        seen = [l for l in labels if l]
        assert "conv" in seen and "fc" in seen


class TestRenderPinned:
    """Pins the renderer's output bit for bit.

    Each digest covers every slice's signal bytes, dominant-phase label
    and duration over a grid of secrets, seeds, slice widths that do
    not divide the program evenly, and windows both shorter and longer
    than the program. Any change to the rendering arithmetic, its
    floating-point summation order or its RNG draw order changes them.
    """

    SLICES = (1e-3, 3e-3, 7e-4, 1e-2)
    WINDOWS = (0.3, 3.5)
    SEEDS = (0, 7)

    CASES = {
        "website": (WebsiteWorkload, ("google.com", "cnn.com", "zoom.us")),
        "keystroke": (KeystrokeWorkload, (0, 3, 9)),
        "dnn": (DnnWorkload, ("alexnet", "resnet18", "vit_b_16")),
        "rsa": (RsaSignWorkload, (0, 5, 15)),
    }

    DIGESTS = {
        "website": (
            "96f836c5be20f51922a09813462e5e44"
            "93e7ea164b047bf84bc71b9d2aad10b1"),
        "keystroke": (
            "9958999f24ee0c4ad012ee5aadf8d665"
            "e2a9eb9073f90667f6a4b60c974f3bcc"),
        "dnn": (
            "4d38f18607d50ee50b6783ff05040cf1"
            "2ff9dc867f8181c587802a217f0ba618"),
        "rsa": (
            "b3ea3fc920f6e9e017effd23e567fdd8"
            "aee51e2b43c03689a6653b5f51cb468a"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_render_digest(self, name):
        factory, secrets = self.CASES[name]
        workload = factory()
        if name == "rsa":
            secrets = tuple(workload.secrets[i] for i in secrets)
        digest = hashlib.sha256()
        for secret in secrets:
            for seed in self.SEEDS:
                for window in self.WINDOWS:
                    for slice_s in self.SLICES:
                        blocks, labels = workload.generate_blocks_with_phases(
                            secret, np.random.default_rng(seed), window,
                            slice_s)
                        assert len(blocks) == len(labels)
                        for block in blocks:
                            digest.update(block.signals.tobytes())
                        digest.update(np.array(
                            [b.duration_s for b in blocks]).tobytes())
                        digest.update("\n".join(labels).encode("utf-8"))
        assert digest.hexdigest() == self.DIGESTS[name]
