"""Cross-module property tests on system-level invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.phy.channel import Channel, ChannelParams
from repro.phy.frame import Frame, scramble_bits, descramble_soft_bpsk
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
from repro.phy.pulse import DELAY, SHAPER, MatchedSampler
from repro.utils.bits import random_bits



class TestScramblerProperties:
    @given(st.integers(0, 2**20), st.integers(8, 300),
           st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_involution(self, seed, n, offset):
        bits = random_bits(n, np.random.default_rng(seed))
        once = scramble_bits(bits, offset)
        twice = scramble_bits(once, offset)
        assert np.array_equal(twice, bits)

    @given(st.integers(0, 2**20), st.integers(8, 200))
    @settings(max_examples=25, deadline=None)
    def test_soft_descramble_matches_bit_descramble(self, seed, n):
        """Descrambling BPSK soft values then slicing equals slicing then
        descrambling bits — the §6(a) soft path is consistent."""
        rng = np.random.default_rng(seed)
        bits = random_bits(n, rng)
        scrambled = scramble_bits(bits)
        soft_on_air = (2.0 * scrambled.astype(float) - 1.0).astype(complex)
        soft_clean = descramble_soft_bpsk(soft_on_air)
        sliced = (np.real(soft_clean) > 0).astype(np.uint8)
        assert np.array_equal(sliced, bits)


class TestMediumProperties:
    @given(st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_superposition_linearity(self, seed):
        """The air is linear: a two-packet capture equals the sum of the
        single-packet captures (same channels, no noise)."""
        rng = np.random.default_rng(seed)
        frames = [Frame.make(random_bits(64, rng), src=i + 1)
                  for i in range(2)]
        params = [ChannelParams(
            gain=(1.0 + rng.uniform()) * np.exp(1j * rng.uniform(0, 6)),
            freq_offset=float(rng.uniform(-4e-3, 4e-3)),
            sampling_offset=float(rng.uniform(0, 1)))
            for _ in range(2)]
        offsets = [0, int(rng.integers(10, 120))]
        txs = [Transmission.from_symbols(f.symbols, p, o, str(i))
               for i, (f, p, o) in enumerate(zip(frames, params, offsets))]
        both = synthesize(txs, 0.0, np.random.default_rng(1),
                          leading=4, tail=8)
        assert np.allclose(
            both.samples,
            both.clean_components[0] + both.clean_components[1],
            atol=1e-12)

    @given(st.integers(0, 2**16), st.floats(0.0, 0.99))
    @settings(max_examples=15, deadline=None)
    def test_matched_filter_recovers_any_fractional_timing(self, seed, mu):
        """TX shaping -> fractional delay -> matched sampling is near-
        transparent for every sub-sample offset."""
        rng = np.random.default_rng(seed)
        frame = Frame.make(random_bits(96, rng))
        params = ChannelParams(gain=1.0, sampling_offset=mu)
        wave = Channel(params, rng).apply(SHAPER.shape(frame.symbols))
        out = MatchedSampler().sample(wave, DELAY + mu,
                                        frame.n_symbols)
        core = slice(4, -4)
        assert np.max(np.abs(out[core] - frame.symbols[core])) < 0.05


class TestChannelProperties:
    @given(st.integers(0, 2**16), st.floats(-4e-3, 4e-3),
           st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_reconstruct_deterministic(self, seed, freq, start):
        """reconstruct() must be exactly repeatable (no hidden RNG) — the
        property ZigZag's image subtraction depends on."""
        params = ChannelParams(gain=1.3 * np.exp(1j * 0.2),
                               freq_offset=freq, sampling_offset=0.37)
        x = np.exp(1j * np.linspace(0, 5, 200))
        a = Channel(params, np.random.default_rng(seed)).reconstruct(
            x, start)
        b = Channel(params, np.random.default_rng(seed + 1)).reconstruct(
            x, start)
        assert np.array_equal(a, b)

    @given(st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_channel_linearity(self, seed):
        rng = np.random.default_rng(seed)
        params = ChannelParams(gain=2.0 * np.exp(1j * 0.5),
                               freq_offset=1e-3, sampling_offset=0.4)
        ch = Channel(params, rng)
        a = rng.standard_normal(80) + 1j * rng.standard_normal(80)
        b = rng.standard_normal(80) + 1j * rng.standard_normal(80)
        combined = ch.reconstruct(a + 3.0 * b, 10)
        separate = ch.reconstruct(a, 10) + 3.0 * ch.reconstruct(b, 10)
        assert np.allclose(combined, separate, atol=1e-10)


# One representative (randomly parameterized) stage per impairment kind,
# drawn from a hypothesis-provided seed so every family's parameter space
# gets sampled. Kept in sync with the registry by test_every_kind_sampled.
def _sample_stage(kind: str, rng: np.random.Generator):
    return make_impairment({
        "rayleigh": lambda: {"kind": kind,
                             "coherence_samples": int(rng.integers(1, 800)),
                             "block": bool(rng.integers(2))},
        "rician": lambda: {"kind": kind,
                           "k_factor_db": float(rng.uniform(-5, 20)),
                           "coherence_samples": int(rng.integers(1, 800)),
                           "block": bool(rng.integers(2))},
        "sfo_drift": lambda: {"kind": kind,
                              "drift_ppm": float(rng.uniform(-900, 900))},
        "clip": lambda: {"kind": kind,
                         "saturation": float(rng.uniform(0.2, 5.0)),
                         "smoothness": float(rng.uniform(0.5, 6.0))},
        "quantize": lambda: {"kind": kind,
                             "enob": float(rng.uniform(1.0, 12.0)),
                             "full_scale": float(rng.uniform(0.5, 8.0))},
        "iq_imbalance": lambda: {"kind": kind,
                                 "amplitude_db": float(rng.uniform(-3, 3)),
                                 "phase_deg": float(rng.uniform(-20, 20))},
        "dc_offset": lambda: {"kind": kind,
                              "dc_i": float(rng.uniform(-1, 1)),
                              "dc_q": float(rng.uniform(-1, 1))},
        "cw_tone": lambda: {"kind": kind,
                            "power_db": float(rng.uniform(-20, 10)),
                            "freq": float(rng.uniform(-0.45, 0.45))},
        "burst_noise": lambda: {"kind": kind,
                                "power_db": float(rng.uniform(-10, 10)),
                                "duty_cycle": float(rng.uniform(0, 1)),
                                "burst_samples": int(rng.integers(1, 500))},
    }[kind]())


ALL_KINDS = sorted(available_impairments())

IDENTITY_STAGES = [
    SfoDrift(drift_ppm=0.0),
    SoftClipper(),
    AdcQuantizer(),
    IqImbalance(),
    DcOffset(),
    CwTone(power_db=-np.inf),
    BurstNoise(duty_cycle=0.0),
]


class TestImpairmentProperties:
    def test_every_kind_sampled(self):
        """_sample_stage covers the whole registry — a new impairment
        without property coverage fails here."""
        rng = np.random.default_rng(0)
        for kind in ALL_KINDS:
            assert _sample_stage(kind, rng).kind == kind

    @given(st.sampled_from(ALL_KINDS), st.integers(0, 2**16),
           st.integers(0, 3000), st.integers(1, 1500))
    @settings(max_examples=60, deadline=None)
    def test_seed_determinism_and_length(self, kind, seed, start, n):
        """Same stage + same RNG seed -> bit-identical output, and every
        stage preserves the input length (alignment is sacred: ZigZag's
        chunk bookkeeping counts samples)."""
        stage = _sample_stage(kind, np.random.default_rng(seed))
        x = np.exp(1j * np.linspace(0.0, 11.0, n))
        a = stage.apply(x, np.random.default_rng(seed + 1), start)
        b = stage.apply(x, np.random.default_rng(seed + 1), start)
        assert a.size == x.size
        assert np.array_equal(a, b)

    @given(st.sampled_from([s for s in IDENTITY_STAGES]),
           st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_identity_config_is_passthrough(self, stage, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        assert stage.is_identity
        assert np.array_equal(stage.apply(x, rng), x)

    @given(st.integers(0, 2**16), st.floats(0.3, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_clipper_output_power_bounded(self, seed, saturation):
        rng = np.random.default_rng(seed)
        x = 3.0 * (rng.standard_normal(400) + 1j * rng.standard_normal(400))
        out = SoftClipper(saturation=saturation).apply(x, rng)
        assert np.max(np.abs(out)) <= saturation + 1e-9

    @given(st.integers(0, 2**16), st.floats(1.0, 10.0),
           st.floats(0.5, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_quantizer_output_bounded_by_full_scale(self, seed, enob, fs):
        rng = np.random.default_rng(seed)
        x = 10.0 * (rng.standard_normal(300)
                    + 1j * rng.standard_normal(300))
        out = AdcQuantizer(enob=enob, full_scale=fs).apply(x, rng)
        assert np.max(np.abs(out.real)) <= fs + 1e-9
        assert np.max(np.abs(out.imag)) <= fs + 1e-9

    @given(st.integers(0, 2**16), st.integers(8, 128),
           st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_fading_unit_gain_normalization(self, seed, coherence, block):
        """Rayleigh and Rician are specified unit-average-power: over many
        coherence intervals the empirical power converges to 1."""
        n = coherence * 256
        ones = np.ones(n)
        for stage in (RayleighFading(coherence, block=block),
                      RicianFading(6.0, coherence, block=block)):
            out = stage.apply(ones, np.random.default_rng(seed))
            assert abs(np.mean(np.abs(out) ** 2) - 1.0) < 0.35

    @given(st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_pipeline_composition_matches_manual_chain(self, seed):
        """pipeline.apply == stage-by-stage application with the same RNG
        stream — chaining adds nothing but order."""
        rng = np.random.default_rng(seed)
        stages = tuple(_sample_stage(k, rng)
                       for k in ("rayleigh", "clip", "cw_tone"))
        x = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        piped = ImpairmentPipeline(stages).apply(
            x, np.random.default_rng(seed + 7), 13)
        manual = x
        chain_rng = np.random.default_rng(seed + 7)
        for stage in stages:
            manual = stage.apply(manual, chain_rng, 13)
        assert np.array_equal(piped, manual)

    @given(st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_channel_reconstruct_blind_to_impairments(self, seed):
        """Channel.reconstruct stays deterministic and impairment-free:
        the pipeline only distorts the forward path."""
        rng = np.random.default_rng(seed)
        pipe = ImpairmentPipeline((
            _sample_stage("rician", rng), _sample_stage("dc_offset", rng)))
        params = ChannelParams(gain=1.5 * np.exp(0.3j), freq_offset=1e-3,
                               impairments=pipe)
        bare = ChannelParams(gain=1.5 * np.exp(0.3j), freq_offset=1e-3)
        x = np.exp(1j * np.linspace(0, 9, 200))
        assert np.array_equal(
            Channel(params, np.random.default_rng(seed)).reconstruct(x, 3),
            Channel(bare, np.random.default_rng(seed)).reconstruct(x, 3))


class TestFrameProperties:
    @given(st.integers(0, 2**16), st.integers(16, 400))
    @settings(max_examples=20, deadline=None)
    def test_frame_symbol_count_formula(self, seed, n_bits):
        rng = np.random.default_rng(seed)
        frame = Frame.make(random_bits(n_bits, rng))
        assert frame.n_symbols == 32 + 48 + n_bits + 32

    @given(st.integers(0, 2**16), st.integers(16, 200))
    @settings(max_examples=15, deadline=None)
    def test_identical_payload_identical_symbols(self, seed, n_bits):
        """Retransmitting the same bits puts the same waveform on the air
        — the property collision matching (§4.2.2) relies on."""
        rng = np.random.default_rng(seed)
        payload = random_bits(n_bits, rng)
        f1 = Frame.make(payload, src=1, seq=5)
        f2 = Frame.make(payload, src=1, seq=5)
        assert np.array_equal(f1.symbols, f2.symbols)
