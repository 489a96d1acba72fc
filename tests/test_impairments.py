"""The composable impairment pipeline: stages, wiring, and spec plumbing."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.phy.channel import Channel, ChannelParams
from repro.phy.impairments import (
    AdcQuantizer,
    BurstNoise,
    CwTone,
    DcOffset,
    ImpairmentPipeline,
    IqImbalance,
    RayleighFading,
    RicianFading,
    SfoDrift,
    SoftClipper,
    available_impairments,
    make_impairment,
)
from repro.phy.medium import Transmission, synthesize
from repro.runner.spec import ImpairmentsSpec, ScenarioSpec


def tone(n=2000):
    return np.exp(1j * np.linspace(0.0, 30.0, n))


class TestRegistry:
    def test_all_families_registered(self):
        kinds = set(available_impairments())
        assert {"rayleigh", "rician", "sfo_drift", "clip", "quantize",
                "iq_imbalance", "dc_offset", "cw_tone",
                "burst_noise"} <= kinds

    def test_make_impairment_roundtrip(self):
        stage = make_impairment({"kind": "rayleigh",
                                 "coherence_samples": 99})
        assert stage == RayleighFading(coherence_samples=99)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown impairment"):
            make_impairment({"kind": "warp_drive"})

    def test_missing_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            make_impairment({"coherence_samples": 10})

    def test_bad_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match="bad parameters"):
            make_impairment({"kind": "clip", "nope": 1.0})


class TestFading:
    def test_rayleigh_unit_average_power(self):
        out = RayleighFading(coherence_samples=32).apply(
            np.ones(100_000), np.random.default_rng(0))
        assert abs(np.mean(np.abs(out) ** 2) - 1.0) < 0.1

    def test_block_fading_constant_within_blocks(self):
        out = RayleighFading(coherence_samples=50, block=True).apply(
            np.ones(200), np.random.default_rng(1))
        assert np.allclose(out[:50], out[0])
        assert not np.isclose(out[0], out[50])

    def test_short_coherence_moves_within_packet(self):
        out = RayleighFading(coherence_samples=64).apply(
            np.ones(1000), np.random.default_rng(2))
        assert np.std(np.abs(out)) > 0.1

    def test_rician_high_k_approaches_static(self):
        out = RicianFading(k_factor_db=40.0, coherence_samples=64).apply(
            np.ones(1000), np.random.default_rng(3))
        assert np.std(np.abs(out)) < 0.05
        assert abs(np.mean(np.abs(out) ** 2) - 1.0) < 0.05

    def test_coherence_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            RayleighFading(coherence_samples=0)
        with pytest.raises(ConfigurationError):
            RicianFading(coherence_samples=-1)


class TestSfoDrift:
    def test_zero_drift_is_identity(self):
        stage = SfoDrift(0.0)
        assert stage.is_identity
        x = tone()
        assert np.array_equal(stage.apply(x, np.random.default_rng(0)), x)

    def test_drift_accumulates_along_the_packet(self):
        """Early samples barely move; late samples are visibly shifted —
        the signature a constant sampling offset cannot produce."""
        x = tone(4000)
        out = SfoDrift(drift_ppm=500.0).apply(x, np.random.default_rng(0))
        head = slice(8, 100)
        tail = slice(3000, 3900)
        assert np.max(np.abs(out[head] - x[head])) < 1e-2
        assert np.max(np.abs(out[tail] - x[tail])) > 1e-2

    def test_start_sample_carries_accrued_drift(self):
        x = tone(500)
        late = SfoDrift(drift_ppm=500.0).apply(
            x, np.random.default_rng(0), start_sample=4000)
        early = SfoDrift(drift_ppm=500.0).apply(
            x, np.random.default_rng(0), start_sample=0)
        assert not np.allclose(late, early)

    def test_matches_scalar_sinc_interpolation(self):
        from repro.phy.resample import sinc_kernel

        x = tone(300)
        delta = 400e-6
        out = SfoDrift(drift_ppm=400.0).apply(x, np.random.default_rng(0))
        # Scalar reference: one windowed-sinc kernel per position, the
        # signal zero-padded outside its support.
        w = 4
        padded = np.concatenate([np.zeros(w + 1), x, np.zeros(w + 1)])
        expected = np.empty(x.size, dtype=complex)
        for i, pos in enumerate(np.arange(x.size) * (1.0 + delta)):
            base = int(np.floor(pos))
            centre = base + w + 1
            expected[i] = np.dot(sinc_kernel(-(pos - base), w),
                                 padded[centre - w:centre + w + 1])
        assert np.allclose(out, expected, atol=1e-9)


class TestFrontEnd:
    def test_clipper_bounds_magnitude(self):
        x = 5.0 * tone()
        out = SoftClipper(saturation=1.5).apply(
            x, np.random.default_rng(0))
        assert np.max(np.abs(out)) <= 1.5 + 1e-12

    def test_clipper_transparent_well_below_saturation(self):
        x = 0.01 * tone()
        out = SoftClipper(saturation=10.0, smoothness=3.0).apply(
            x, np.random.default_rng(0))
        assert np.allclose(out, x, rtol=1e-6, atol=1e-12)

    def test_quantizer_snaps_to_grid(self):
        stage = AdcQuantizer(enob=4.0, full_scale=2.0)
        out = stage.apply(tone(), np.random.default_rng(0))
        step = 2.0 * 2.0 / 2 ** 4
        assert np.allclose((out.real - step / 2.0) % step, 0.0, atol=1e-9)
        assert len(np.unique(np.round(out.real / step * 2))) <= 2 ** 4

    def test_quantizer_clips_overrange(self):
        out = AdcQuantizer(enob=6.0, full_scale=1.0).apply(
            np.array([10.0 + 10.0j]), np.random.default_rng(0))
        assert np.abs(out[0].real) <= 1.0 and np.abs(out[0].imag) <= 1.0

    def test_iq_imbalance_creates_image(self):
        """A pure positive-frequency tone leaks a mirror image at the
        negative frequency — the classic IQ-imbalance signature."""
        n = 1024
        x = np.exp(2j * np.pi * 0.1 * np.arange(n))
        out = IqImbalance(amplitude_db=1.0, phase_deg=5.0).apply(
            x, np.random.default_rng(0))
        spectrum = np.abs(np.fft.fft(out))
        k = round(0.1 * n)
        assert spectrum[n - k] > 0.01 * spectrum[k]

    def test_dc_offset_shifts_mean(self):
        out = DcOffset(dc_i=0.25, dc_q=-0.5).apply(
            np.zeros(100, dtype=complex), np.random.default_rng(0))
        assert np.allclose(out, 0.25 - 0.5j)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SoftClipper(saturation=0.0)
        with pytest.raises(ConfigurationError):
            AdcQuantizer(enob=0.5)
        with pytest.raises(ConfigurationError):
            AdcQuantizer(full_scale=-1.0)


class TestInterferers:
    def test_cw_tone_adds_requested_power(self):
        out = CwTone(power_db=3.0, freq=0.07, phase=0.0).apply(
            np.zeros(5000, dtype=complex), np.random.default_rng(0))
        assert abs(np.mean(np.abs(out) ** 2) - 10 ** 0.3) < 0.05

    def test_cw_tone_random_phase_comes_from_rng(self):
        zeros = np.zeros(10, dtype=complex)
        a = CwTone(power_db=0.0).apply(zeros, np.random.default_rng(1))
        b = CwTone(power_db=0.0).apply(zeros, np.random.default_rng(2))
        assert not np.allclose(a, b)

    def test_cw_tone_freq_validated(self):
        with pytest.raises(ConfigurationError):
            CwTone(freq=0.7)

    def test_burst_noise_duty_cycle(self):
        out = BurstNoise(power_db=20.0, duty_cycle=0.25,
                         burst_samples=100).apply(
            np.zeros(100_000, dtype=complex), np.random.default_rng(0))
        on_fraction = np.mean(np.abs(out) > 0)
        assert abs(on_fraction - 0.25) < 0.05

    def test_burst_noise_silent_between_bursts(self):
        out = BurstNoise(power_db=10.0, duty_cycle=0.5,
                         burst_samples=50).apply(
            np.zeros(1000, dtype=complex), np.random.default_rng(3))
        gates = np.abs(out).reshape(-1, 50) > 0
        assert np.all(gates.all(axis=1) | (~gates).any(axis=1))

    def test_burst_validation(self):
        with pytest.raises(ConfigurationError):
            BurstNoise(duty_cycle=1.5)
        with pytest.raises(ConfigurationError):
            BurstNoise(burst_samples=0)


class TestPipeline:
    def test_empty_pipeline_is_identity(self):
        pipe = ImpairmentPipeline()
        x = tone()
        assert pipe.is_identity
        assert np.array_equal(pipe.apply(x, np.random.default_rng(0)), x)

    def test_stages_apply_in_order(self):
        """clip-then-offset differs from offset-then-clip."""
        x = 3.0 * tone(200)
        rng = np.random.default_rng(0)
        a = ImpairmentPipeline((SoftClipper(saturation=1.0),
                                DcOffset(dc_i=0.5))).apply(x, rng)
        b = ImpairmentPipeline((DcOffset(dc_i=0.5),
                                SoftClipper(saturation=1.0))).apply(x, rng)
        assert not np.allclose(a, b)

    def test_from_specs_to_specs_roundtrip(self):
        pipe = ImpairmentPipeline.from_specs([
            {"kind": "rician", "k_factor_db": 3.0},
            {"kind": "cw_tone", "power_db": -3.0, "freq": 0.2},
        ])
        assert ImpairmentPipeline.from_specs(pipe.to_specs()) == pipe

    def test_non_impairment_stage_rejected(self):
        with pytest.raises(ConfigurationError, match="not an impairment"):
            ImpairmentPipeline(("garbage",))

    def test_pipeline_is_hashable_and_picklable(self):
        import pickle

        pipe = ImpairmentPipeline((RayleighFading(64), AdcQuantizer(6.0)))
        assert hash(pipe) == hash(pickle.loads(pickle.dumps(pipe)))


class TestChannelWiring:
    def test_channel_applies_per_sender_pipeline(self, rng):
        pipe = ImpairmentPipeline((DcOffset(dc_i=1.0),))
        params = ChannelParams(gain=1.0, impairments=pipe)
        x = tone(100)
        out = Channel(params, rng).apply(x)
        assert np.allclose(out, x + 1.0)

    def test_reconstruct_excludes_impairments(self, rng):
        """The re-encoder must NOT know about impairments — they are the
        unknowable residual that makes cancellation imperfect."""
        pipe = ImpairmentPipeline((RayleighFading(32),))
        params = ChannelParams(gain=2.0, impairments=pipe)
        clean = ChannelParams(gain=2.0)
        x = tone(100)
        assert np.array_equal(
            Channel(params, np.random.default_rng(0)).reconstruct(x, 5),
            Channel(clean, np.random.default_rng(0)).reconstruct(x, 5))

    def test_synthesize_applies_capture_pipeline(self, rng):
        t = Transmission(tone(300), ChannelParams(), 0, "a")
        pipe = ImpairmentPipeline((SoftClipper(saturation=0.25),))
        cap = synthesize([t], 0.0, np.random.default_rng(0),
                         impairments=pipe)
        assert np.max(np.abs(cap.samples)) <= 0.25 + 1e-12
        clean = synthesize([t], 0.0, np.random.default_rng(0))
        assert np.max(np.abs(clean.samples)) > 0.25


class TestImpairmentsSpec:
    TOML = """
[scenario]
kind = "hidden_pair_impaired"
n_trials = 2
seed = 7

[[impairments.sender]]
kind = "rayleigh"
coherence_samples = 256

[[impairments.sender]]
kind = "sfo_drift"
drift_ppm = 120.0

[[impairments.capture]]
kind = "quantize"
enob = 6.0
"""

    @pytest.fixture
    def spec(self, tmp_path):
        path = tmp_path / "impaired.toml"
        path.write_text(self.TOML)
        return ScenarioSpec.from_toml(path)

    def test_from_toml_builds_pipelines(self, spec):
        sender = spec.impairments.sender_pipeline()
        capture = spec.impairments.capture_pipeline()
        assert sender.stages == (RayleighFading(coherence_samples=256),
                                 SfoDrift(drift_ppm=120.0))
        assert capture.stages == (AdcQuantizer(enob=6.0),)

    def test_to_dict_from_dict_roundtrip(self, spec):
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_override_roundtrip(self, spec):
        swept = spec.with_override(
            "impairments.sender.0.coherence_samples", 64).with_override(
            "impairments.capture.0.enob", 4.0)
        assert swept.impairments.sender_pipeline().stages[0] \
            == RayleighFading(coherence_samples=64)
        assert swept.impairments.capture_pipeline().stages[0] \
            == AdcQuantizer(enob=4.0)
        # The original is untouched and the swept spec still round-trips.
        assert spec.impairments.capture_pipeline().stages[0].enob == 6.0
        assert ScenarioSpec.from_dict(swept.to_dict()) == swept

    def test_override_bad_stage_index(self, spec):
        with pytest.raises(ConfigurationError, match="stage"):
            spec.with_override("impairments.sender.9.coherence_samples", 1)

    def test_override_negative_stage_index_rejected(self, spec):
        """-1 must not silently edit the last stage."""
        with pytest.raises(ConfigurationError, match="stage"):
            spec.with_override("impairments.sender.-1.drift_ppm", 5.0)

    def test_runner_rejects_impairments_unaware_scenario(self, spec):
        """A scenario that never reads [impairments] must refuse an
        impaired spec instead of silently decoding the clean channel."""
        import dataclasses

        from repro.runner import MonteCarloRunner

        unaware = dataclasses.replace(spec, kind="zigzag_ber")
        with pytest.raises(ConfigurationError,
                           match="does not apply.*impairments"):
            MonteCarloRunner().run(unaware)

    def test_impairment_aware_flags_match_registry(self):
        from repro.runner.scenarios import available_scenarios, get_scenario

        aware = {name for name in available_scenarios()
                 if get_scenario(name).impairments}
        assert aware == {"pair", "capture", "testbed_pair",
                         "hidden_pair_decode",
                         "hidden_pair_impaired", "ap_stream",
                         "three_senders_stream", "city_multicell"}

    def test_override_bad_path(self, spec):
        with pytest.raises(ConfigurationError, match="impairment override"):
            spec.with_override("impairments.receiver.0.x", 1)

    def test_unknown_hook_rejected(self):
        with pytest.raises(ConfigurationError, match="hooks"):
            ScenarioSpec.from_dict({
                "scenario": {"kind": "pair"},
                "impairments": {"antenna": [{"kind": "rayleigh"}]},
            })

    def test_bad_stage_rejected_at_load_time(self):
        with pytest.raises(ConfigurationError, match="unknown impairment"):
            ScenarioSpec.from_dict({
                "scenario": {"kind": "pair"},
                "impairments": {"sender": [{"kind": "warp_drive"}]},
            })

    def test_empty_impairments_table_stays_out_of_to_dict(self):
        assert "impairments" not in ScenarioSpec(kind="pair").to_dict()

    def test_spec_with_impairments_is_picklable(self, spec):
        import pickle

        assert pickle.loads(pickle.dumps(spec)) == spec


class TestImpairmentsSpecValidation:
    def test_stage_needs_kind(self):
        with pytest.raises(ConfigurationError, match="kind"):
            ImpairmentsSpec(sender=({"coherence_samples": 4},))

    def test_dict_instead_of_array_rejected(self):
        with pytest.raises(ConfigurationError, match="array of tables"):
            ImpairmentsSpec(sender={"kind": "rayleigh"})
