"""The parallel multi-cell coordinator: bit-identity and watchdogs.

Two contracts under test (see ``repro.link.parallel``):

- **Bit-identity** — the process-parallel coupled coordinator produces
  a :class:`~repro.link.MultiCellReport` identical to the sequential
  one (per-cell flows, receiver stats, counters, elapsed medium time)
  at *any* worker count, because injected phases are keyed by
  (window, src AP, dst AP, transmission seq) rather than drawn from a
  shared stream and every victim's injections apply in canonical order.
- **Degrade-to-sequential** — a hung, killed, or raising cell worker
  (``chaos.FaultSpec``) trips the barrier watchdog; the block reruns
  sequentially in the parent with identical results and zero leaked
  shared-memory segments.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.link import MultiCellConfig
from repro.runner.builders import build_city_session
from repro.runner.chaos import FaultSpec
from repro.runner.shm import find_leaked_arenas
from repro.runner.spec import ScenarioSpec
from repro.testbed.deployment import INTERFERENCE_FLOOR_DB


def city_spec(n_aps=3, n_clients=12, area_m=70.0, seed=11, n_packets=1,
              **deployment_extra) -> ScenarioSpec:
    table = {"n_aps": n_aps, "n_clients": n_clients, "area_m": area_m,
             "seed": seed, **deployment_extra}
    return ScenarioSpec.from_dict({
        "scenario": {"kind": "city_multicell", "n_packets": n_packets,
                     "payload_bits": 96, "design": "zigzag"},
        "deployment": table,
    })


def run_block(workers, *, seed=11, faults=None, step_timeout=60.0,
              **spec_extra):
    spec = city_spec(coupled_workers=workers, **spec_extra)
    city = build_city_session(spec, np.random.default_rng(seed), "zigzag")
    if faults is not None or step_timeout != 60.0:
        from dataclasses import replace
        city.config = replace(city.config, faults=faults,
                              step_timeout_s=step_timeout)
    return city, city.run()


def strip(report):
    """Everything the bit-identity contract covers (wall time and
    execution metadata — elapsed_s, workers, degraded — excluded)."""
    cells = {
        ap: (r.design, r.flows, r.samples_elapsed, r.packet_samples,
             r.receiver_stats, dict(r.counters), r.timed_out)
        for ap, r in report.cells.items()
    }
    return (report.design, cells, dict(report.counters))


class TestParallelEquivalence:
    def test_bit_identical_reports_any_worker_count(self):
        _, sequential = run_block(1)
        stripped = strip(sequential)
        n_cells = len(sequential.cells)
        for workers in (2, n_cells):
            city, parallel = run_block(workers)
            assert parallel.workers == min(workers, n_cells)
            assert not parallel.degraded
            assert strip(parallel) == stripped
            # Counter types match too (ints stay ints across the merge).
            assert repr(parallel.counters) == repr(sequential.counters)
        assert find_leaked_arenas() == []

    def test_bit_identical_with_dense_injections(self):
        # A tighter block with real cross-cell injections in flight.
        kw = dict(n_aps=4, n_clients=24, area_m=80.0, n_packets=2)
        _, sequential = run_block(1, **kw)
        assert sequential.counters["injections"] > 0
        _, parallel = run_block(0, **kw)   # 0 = one worker per cell
        assert parallel.workers == len(sequential.cells)
        assert strip(parallel) == strip(sequential)
        assert find_leaked_arenas() == []

    def test_workers_one_stays_in_process(self):
        city, report = run_block(1)
        assert report.workers == 1 and not report.degraded
        assert city.effective_workers() == 1

    def test_builder_threads_coupled_workers(self):
        spec = city_spec(coupled_workers=2)
        city = build_city_session(spec, np.random.default_rng(1),
                                  "zigzag")
        assert city.config.workers == 2
        assert city.effective_workers() == 2

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            MultiCellConfig(workers=-1)
        with pytest.raises(ConfigurationError):
            MultiCellConfig(step_timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            city_spec(coupled_workers=-2).deployment.validate()


class TestInjectionSite:
    def test_every_injection_goes_through_the_module_global(
            self, monkeypatch):
        """The coordinator has one injection site, and it looks
        ``apply_injection`` up in ``repro.link.multicell`` at call time
        (the name a tracer patches)."""
        from repro.link import multicell

        calls = []
        real = multicell.apply_injection

        def counting(*args):
            calls.append(args)
            real(*args)

        monkeypatch.setattr(multicell, "apply_injection", counting)
        _, report = run_block(1, n_aps=4, n_clients=24, area_m=80.0,
                              n_packets=2)
        counters = report.counters
        assert counters["injections"] > 0
        assert len(calls) == (counters["injections"]
                              + counters["injections_skipped"])


class TestPhaseKeying:
    """Satellite regression: injected phases are a pure function of
    (window, src AP, dst AP, seq) — evaluation order cannot matter."""

    def _session(self, seed=11):
        return build_city_session(city_spec(), np.random.default_rng(seed),
                                  "zigzag")

    def test_order_independent(self):
        city = self._session()
        keys = [(w, s, d, q) for w in (1, 2) for s in (0, 1)
                for d in (0, 1) for q in (0, 3)]
        forward = [city._injected_phase(*k) for k in keys]
        backward = [city._injected_phase(*k) for k in reversed(keys)]
        assert forward == backward[::-1]

    def test_distinct_keys_distinct_phases(self):
        city = self._session()
        phases = {city._injected_phase(w, s, d, q)
                  for w in range(3) for s in range(2)
                  for d in range(2) for q in range(2)}
        assert len(phases) == 24

    def test_entropy_rides_constructor_rng(self):
        a, b = self._session(seed=1), self._session(seed=2)
        assert a._injected_phase(1, 0, 1, 0) \
            != b._injected_phase(1, 0, 1, 0)

    def test_victim_prefilter_matches_snr_matrix(self):
        city = self._session()
        floor = INTERFERENCE_FLOOR_DB
        for src in city.cells:
            for client, _snr in src.lookup.values():
                expected = [
                    (dst.index,
                     float(city.deployment.ap_client_snr(dst.plan.ap,
                                                         client)))
                    for dst in city.cells
                    if dst.index != src.index
                    and city.deployment.ap_client_snr(dst.plan.ap,
                                                      client) >= floor]
                assert list(city._victims[client]) == expected

    @pytest.mark.parametrize("block", [
        {},
        {"n_aps": 10, "n_clients": 110, "area_m": 120.0,
         "offered_load": 0.25, "saturated_fraction": 0.2},
    ], ids=["block3", "block10"])
    def test_victims_invert_deployment_interferers(self, block):
        """The victim table built from ``Deployment.interferers`` equals
        the per-client loop over the SNR matrix it replaced: same
        clients in the same order, same victims, same floats."""
        city = build_city_session(city_spec(**block),
                                  np.random.default_rng(11), "zigzag")
        oracle = {}
        for src in city.cells:
            for client, _snr_home in src.lookup.values():
                hearers = []
                for dst in city.cells:
                    if dst.index == src.index:
                        continue
                    snr_vic = float(city.deployment.ap_client_snr(
                        dst.plan.ap, client))
                    if snr_vic >= INTERFERENCE_FLOOR_DB:
                        hearers.append((dst.index, snr_vic))
                oracle[client] = tuple(hearers)
        assert list(city._victims.items()) == list(oracle.items())
        assert any(city._victims.values())


class TestDegradeToSequential:
    """Injected worker faults must cost wall-clock, never correctness."""

    @pytest.fixture(scope="class")
    def sequential(self):
        _, report = run_block(1)
        return strip(report)

    def _degraded_run(self, faults, sequential):
        city, report = run_block(2, faults=faults, step_timeout=1.0)
        assert report.degraded
        assert report.workers == 2
        assert city.degrade_reason is not None
        assert strip(report) == sequential
        assert find_leaked_arenas() == []
        return city

    def test_hung_worker_trips_barrier_watchdog(self, sequential):
        city = self._degraded_run(
            FaultSpec(hang_trial_prob=1.0, hang_seconds=4.0, seed=3),
            sequential)
        assert "unresponsive" in city.degrade_reason

    def test_killed_worker_degrades(self, sequential):
        city = self._degraded_run(
            FaultSpec(kill_worker_prob=1.0, seed=3), sequential)
        assert "died" in city.degrade_reason

    def test_raising_worker_degrades(self, sequential):
        city = self._degraded_run(
            FaultSpec(raise_in_trial_prob=1.0, seed=3), sequential)
        assert "FaultInjectionError" in city.degrade_reason
