"""Geometry-derived deployments: pathloss -> SNR -> topology -> session.

Covers the :mod:`repro.testbed.deployment` derivation, the
:class:`repro.link.Topology` abstraction it feeds, the multi-cell
coordinator, and — as a fixed-seed regression — the exact hidden-pair
set a derived session ends up sensing.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.link import (
    ContinuousAir,
    LinkSession,
    SessionConfig,
    StreamClient,
    Topology,
)
from repro.runner.builders import build_cell_session, build_city_session
from repro.runner.spec import ScenarioSpec
from repro.testbed.deployment import (
    Deployment,
    DeploymentConfig,
    client_name,
)
from repro.testbed.pathloss import MAX_SNR_DB, LogDistancePathLoss
from repro.testbed.topology import (
    CS_FULL_DB,
    CS_NONE_DB,
    REACHABLE_DB,
    SensingClass,
)


def make_deployment(n_aps=2, n_clients=10, area_m=60.0, seed=42,
                    **kwargs) -> Deployment:
    config = DeploymentConfig(n_aps=n_aps, n_clients=n_clients,
                              area_m=area_m, **kwargs)
    return Deployment.generate(config, seed=seed)


class TestDeploymentGeneration:
    def test_shapes_and_bounds(self):
        dep = make_deployment(n_aps=3, n_clients=7, area_m=50.0)
        assert dep.ap_positions.shape == (3, 2)
        assert dep.client_positions.shape == (7, 2)
        assert dep.snr_db.shape == (10, 10)
        assert np.all(dep.client_positions >= 0.0)
        assert np.all(dep.client_positions <= 50.0)

    def test_snr_matrix_symmetric_and_clamped(self):
        dep = make_deployment()
        off = ~np.eye(dep.snr_db.shape[0], dtype=bool)
        assert np.allclose(dep.snr_db, dep.snr_db.T)
        assert np.all(dep.snr_db[off] <= MAX_SNR_DB)
        assert np.all(np.isinf(np.diag(dep.snr_db)))

    def test_reproducible_from_seed(self):
        a, b = make_deployment(seed=5), make_deployment(seed=5)
        assert np.array_equal(a.snr_db, b.snr_db)
        assert np.array_equal(a.ap_positions, b.ap_positions)
        c = make_deployment(seed=6)
        assert not np.array_equal(a.snr_db, c.snr_db)

    def test_association_partition(self):
        dep = make_deployment()
        cells = [dep.associated_clients(a) for a in range(dep.n_aps)]
        members = [i for cell in cells for i in cell]
        assert len(members) == len(set(members))
        assert sorted(members + list(dep.unassociated_clients())) \
            == list(range(dep.n_clients))
        for ap, cell in enumerate(cells):
            for client in cell:
                assert dep.serving_ap(client) == ap
                # Association = strongest reachable link.
                snrs = [dep.ap_client_snr(a, client)
                        for a in range(dep.n_aps)]
                assert dep.ap_client_snr(ap, client) == max(snrs)
                assert max(snrs) >= REACHABLE_DB
        for client in dep.unassociated_clients():
            assert dep.serving_ap(client) is None

    def test_interferers_out_of_cell_and_sorted(self):
        dep = make_deployment()
        for ap in range(dep.n_aps):
            own = set(dep.associated_clients(ap))
            heard = dep.interferers(ap, floor_db=-5.0)
            snrs = [snr for _, snr in heard]
            assert snrs == sorted(snrs, reverse=True)
            for client, snr in heard:
                assert client not in own
                assert snr >= -5.0
                assert snr == dep.ap_client_snr(ap, client)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            DeploymentConfig(n_aps=0)
        with pytest.raises(ConfigurationError):
            DeploymentConfig(n_clients=300)
        # The fixed thresholds keep the order the rules rely on; an
        # association floor at or below CS_NONE_DB could hide a client
        # from its own AP.
        assert CS_NONE_DB < REACHABLE_DB
        assert CS_NONE_DB < CS_FULL_DB


class TestFixedSeedRegression:
    """Pin the full seed-42 derivation: positions -> pathloss -> sensing
    classes -> the exact hidden-pair set the session receives."""

    def test_derived_cells_pinned(self):
        dep = make_deployment(n_aps=2, n_clients=10, area_m=60.0, seed=42)
        assert [dep.serving_ap(i) for i in range(10)] \
            == [None, None, 0, None, None, 0, 0, 1, 1, None]
        cells = dep.cells()
        assert [plan.ap for plan in cells] == [0, 1]
        cell0, cell1 = cells
        assert cell0.names == ("c2", "c5", "c6")
        assert cell0.srcs == (3, 6, 7)
        assert cell0.hidden_pairs == (("c2", "c6"),)
        assert cell1.names == ("c7", "c8")
        assert cell1.hidden_pairs == ()
        assert np.allclose(cell0.snr_db,
                           (7.981461, 15.652613, 8.700486), atol=1e-5)
        mix = dep.sensing_mix()
        assert mix[SensingClass.PERFECT] == pytest.approx(0.75)
        assert mix[SensingClass.HIDDEN] == pytest.approx(0.25)

    def test_hidden_pairs_match_independent_recomputation(self):
        dep = make_deployment(n_aps=2, n_clients=10, area_m=60.0, seed=42)
        for plan in dep.cells():
            expected = set()
            for x in range(plan.n_clients):
                for y in range(x + 1, plan.n_clients):
                    snr = dep.client_snr(plan.clients[x], plan.clients[y])
                    if snr <= CS_NONE_DB:
                        expected.add(frozenset((plan.names[x],
                                                plan.names[y])))
            assert {frozenset(p) for p in plan.hidden_pairs} == expected

    def test_session_receives_exact_hidden_set(self):
        """End to end: the LinkSession built from the derived cell is
        blind on exactly the derived hidden pairs, pinned by seed."""
        dep = make_deployment(n_aps=2, n_clients=10, area_m=60.0, seed=42)
        plan = dep.cells()[0]
        clients = [StreamClient(name, src, snr, 0.0)
                   for name, src, snr
                   in zip(plan.names, plan.srcs, plan.snr_db)]
        config = SessionConfig(topology=Topology.from_cell(plan),
                               n_packets=1)
        session = LinkSession(config, clients, design="zigzag",
                              rng=np.random.default_rng(0))
        names = list(plan.names)
        sense = session._sense
        hidden = {frozenset((names[i], names[j]))
                  for i in range(len(names))
                  for j in range(i + 1, len(names))
                  if not sense[i, j]}
        # Seed 42 yields no partial pairs in this cell, so the sensed
        # set equals the deterministic hidden set exactly.
        assert all(p in (0.0, 1.0)
                   for _, _, p in plan.pair_probabilities)
        assert hidden == {frozenset(("c2", "c6"))}


class TestTopology:
    def test_explicit_consumes_no_rng(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state["state"]["state"]
        topo = Topology.explicit(hidden_pairs=(("A", "B"),))
        sense = topo.sense_matrix(["A", "B", "C"], rng)
        assert rng.bit_generator.state["state"]["state"] == state
        assert not sense[0, 1] and not sense[1, 0]
        assert sense[0, 2] and sense[1, 2]

    def test_probabilistic_draws_every_pair(self):
        # Bit-compat contract: one uniform per i<j pair, even at the
        # degenerate endpoints 0.0/1.0.
        names = list("ABCD")
        for p in (0.0, 0.4, 1.0):
            rng_a = np.random.default_rng(9)
            rng_b = np.random.default_rng(9)
            Topology.probabilistic(p).sense_matrix(names, rng_a)
            n_pairs = len(names) * (len(names) - 1) // 2
            rng_b.uniform(size=n_pairs)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_derived_draws_only_partial_pairs(self):
        topo = Topology(mode="derived", pair_probabilities=(
            ("A", "B", 0.0), ("A", "C", 1.0), ("B", "C", 0.5)))
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        sense = topo.sense_matrix(list("ABC"), rng_a)
        rng_b.uniform()  # exactly one draw: the single partial pair
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        assert not sense[0, 1]
        assert sense[0, 2]

    def test_clique_expansion_and_k(self):
        topo = Topology.explicit(hidden_cliques=(("A", "B", "C"),))
        assert topo.hidden_edges() == {frozenset("AB"), frozenset("AC"),
                                       frozenset("BC")}
        assert topo.collision_packets() == 3

    def test_unknown_names_rejected(self):
        topo = Topology.explicit(hidden_pairs=(("A", "Z"),))
        with pytest.raises(ConfigurationError, match="unknown clients"):
            topo.sense_matrix(["A", "B"], np.random.default_rng(0))


class TestDeploymentProperties:
    @given(st.floats(2.0, 4.5), st.floats(0.1, 80.0), st.floats(1.0, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_pathloss_monotone_in_distance(self, exponent, d, step):
        model = LogDistancePathLoss(exponent=exponent, shadowing_db=0.0)
        assert model.mean_loss_db(d + step) >= model.mean_loss_db(d)

    @given(st.integers(0, 2 ** 16), st.integers(1, 4),
           st.integers(2, 20), st.floats(30.0, 150.0))
    @settings(max_examples=25, deadline=None)
    def test_snr_matrix_symmetry(self, seed, n_aps, n_clients, area):
        dep = make_deployment(n_aps=n_aps, n_clients=n_clients,
                              area_m=area, seed=seed)
        assert np.allclose(dep.snr_db, dep.snr_db.T)

    @given(st.integers(0, 2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_sensing_class_consistent_with_probability(self, seed):
        dep = make_deployment(seed=seed)
        for a in range(dep.n_clients):
            for b in range(dep.n_clients):
                if a == b:
                    continue
                p = dep.sense_probability(a, b)
                cls = dep.sensing_class(a, b)
                assert 0.0 <= p <= 1.0
                if cls is SensingClass.PERFECT:
                    assert p == 1.0
                elif cls is SensingClass.HIDDEN:
                    assert p == 0.0
                else:
                    assert 0.0 < p < 1.0

    @given(st.integers(0, 2 ** 16), st.integers(1, 4),
           st.integers(2, 24))
    @settings(max_examples=25, deadline=None)
    def test_never_hidden_from_own_ap(self, seed, n_aps, n_clients):
        """An associated client's link to its serving AP always clears
        the carrier-sense floor: from_deployment can't produce a client
        its own AP has zero chance of hearing."""
        dep = make_deployment(n_aps=n_aps, n_clients=n_clients,
                              seed=seed)
        for plan in dep.cells():
            topo = Topology.from_deployment(dep, plan.ap)
            assert topo.mode == "derived"
            for snr in plan.snr_db:
                assert snr >= REACHABLE_DB
                assert snr > CS_NONE_DB


class TestAirInject:
    def test_inject_clips_at_cursor(self):
        air = ContinuousAir(np.random.default_rng(0))
        air.emit(64)
        wave = np.ones(100, dtype=complex)
        lo, end = air.inject(32, wave)
        assert (lo, end) == (64, 132)
        assert air.samples_clipped == 32
        assert air.samples_injected == 68
        # The surviving suffix rides the next chunks.
        chunk = air.emit(68)
        assert np.all(np.abs(chunk) > 0)

    def test_inject_entirely_past_is_dropped(self):
        air = ContinuousAir(np.random.default_rng(0))
        air.emit(64)
        lo, end = air.inject(0, np.ones(32, dtype=complex))
        assert end <= lo
        assert air.samples_injected == 0
        assert air.resident_samples == 0


def city_spec(n_aps=3, n_clients=12, area_m=70.0, seed=11,
              **deployment_extra) -> ScenarioSpec:
    table = {"n_aps": n_aps, "n_clients": n_clients, "area_m": area_m,
             "seed": seed, **deployment_extra}
    return ScenarioSpec.from_dict({
        "scenario": {"kind": "city_multicell", "n_packets": 1,
                     "payload_bits": 96, "design": "zigzag"},
        "deployment": table,
    })


class TestMultiCell:
    def test_coupled_block_runs_every_cell(self):
        spec = city_spec()
        city = build_city_session(spec, np.random.default_rng(1),
                                  "zigzag")
        report = city.run()
        assert set(report.cells) == {rt.plan.ap for rt in city.cells}
        assert report.counters["windows"] >= 1
        assert report.total_delivered >= 0
        assert report.timed_out_cells == 0
        for cell_report in report.cells.values():
            assert cell_report is not None

    def test_deterministic_given_seed(self):
        spec = city_spec()
        runs = []
        for _ in range(2):
            city = build_city_session(spec, np.random.default_rng(7),
                                      "zigzag")
            runs.append(city.run())
        assert runs[0].total_delivered == runs[1].total_delivered
        assert runs[0].counters == runs[1].counters
        for ap in runs[0].cells:
            assert runs[0].cells[ap].samples_elapsed \
                == runs[1].cells[ap].samples_elapsed

    def test_rejects_slot_engine_sessions(self):
        """The removed slot core's params.engine is rejected: the
        city_multicell kind declares no [params] key at all."""
        with pytest.raises(ConfigurationError,
                           match="'city_multicell' has no \\[params\\] "
                                 "key 'engine'"):
            city_spec().with_override("params.engine", "slot")


class TestCellBuilder:
    def test_cell_session_matches_plan(self):
        spec = city_spec(offered_load=0.4, saturated_fraction=0.5)
        from repro.runner.builders import get_deployment
        deployment = get_deployment(spec)
        plan = max(deployment.cells(), key=lambda p: p.n_clients)
        session = build_cell_session(spec, np.random.default_rng(0),
                                     "zigzag", deployment, plan)
        assert [c.client.name for c in session.clients] \
            == list(plan.names)
        assert [c.client.src for c in session.clients] == list(plan.srcs)
        assert session.topology.mode == "derived"
        loads = {c.client.name: c.client.offered_load
                 for c in session.clients}
        for name, index in zip(plan.names, plan.clients):
            assert loads[name] == \
                spec.deployment.client_offered_load(index)

    def test_client_name_roundtrip(self):
        assert client_name(0) == "c0"
        assert client_name(17) == "c17"


class TestDeploymentSpec:
    """The [deployment] spec table: parse/override/validate wiring."""

    def test_sequential_overrides_from_empty_table(self):
        # --set applies one key at a time, so the intermediate state
        # (n_aps set, n_clients still 0) must stay constructible; only
        # the final spec is validated (by the runner's pre-run gate).
        spec = ScenarioSpec.from_dict(
            {"scenario": {"kind": "city_multicell", "n_trials": 1}})
        spec = spec.with_override("deployment.n_aps", 2)
        spec = spec.with_override("deployment.n_clients", 8)
        spec.deployment.validate()
        assert not spec.deployment.is_empty

    def test_validate_rejects_half_declared_table(self):
        spec = ScenarioSpec.from_dict(
            {"scenario": {"kind": "city_multicell", "n_trials": 1}})
        spec = spec.with_override("deployment.n_aps", 2)
        with pytest.raises(ConfigurationError, match="n_clients"):
            spec.deployment.validate()

    def test_from_dict_validates_eagerly(self):
        with pytest.raises(ConfigurationError, match="n_clients"):
            ScenarioSpec.from_dict(
                {"scenario": {"kind": "city_multicell", "n_trials": 1},
                 "deployment": {"n_aps": 2}})

    def test_roundtrip_preserves_table(self):
        spec = ScenarioSpec.from_dict(
            {"scenario": {"kind": "city_multicell", "n_trials": 1},
             "deployment": {"n_aps": 2, "n_clients": 8, "area_m": 50.0}})
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again.deployment == spec.deployment
