"""Production-shaped scenario streams: determinism, shape, oracles.

Covers the ISSUE 7 seed-plumbing audit (every generator takes an
explicit ``rng``/``seed``; same seed => byte-identical output) and the
structural guarantees of the city / grid / convoy / adversarial
streams the soak harness leans on.
"""

import json
import random

import pytest

from repro.core.model import LinearMotion1D, MobileObject1D
from repro.core.predicates import brute_force_1d
from repro.core.queries import MORQuery1D
from repro.indexes import NaiveScanIndex
from repro.service.sharding import VelocityRouter
from repro.workloads import (
    SCENARIO_NAMES,
    AdversarialSkewScenario,
    CityScenario,
    ConvoyScenario,
    GridBucketOracle,
    GridScenario,
    PlanarWorkloadGenerator,
    RouteScenario,
    Scenario,
    WorkloadConfig,
    WorkloadGenerator,
    build_scenario,
    grid_network,
    paper_model,
)
from repro.workloads.generator import SMALL_QUERIES


def stream_bytes(scenario, ticks=5):
    """Canonical byte serialization of a stream's full schedule."""
    chunks = [[e.as_tuple() for e in scenario.initial_events()]]
    for tick in range(1, ticks + 1):
        chunks.append([e.as_tuple() for e in scenario.tick_events(float(tick))])
        chunks.append([
            repr(scenario.random_query(float(tick))) for _ in range(4)
        ])
    return json.dumps(chunks).encode()


class TestSeedPlumbing:
    """Satellite: same seed => byte-identical, injected rng honoured."""

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_stream_byte_identical_across_runs(self, name):
        kwargs = dict(n=80, seed=13, arrivals_per_tick=2,
                      departures_per_tick=1)
        a = stream_bytes(build_scenario(name, **kwargs))
        b = stream_bytes(build_scenario(name, **kwargs))
        assert a == b
        c = stream_bytes(build_scenario(name, n=80, seed=14,
                                        arrivals_per_tick=2,
                                        departures_per_tick=1))
        assert a != c

    def test_workload_generator_rng_injection(self):
        seeded = WorkloadGenerator(seed=3)
        injected = WorkloadGenerator(rng=random.Random(3))
        assert seeded.initial_population(40) == injected.initial_population(40)
        assert (
            seeded.queries(SMALL_QUERIES, 10.0, 8)
            == injected.queries(SMALL_QUERIES, 10.0, 8)
        )
        # rng wins over seed when both are passed.
        both = WorkloadGenerator(seed=999, rng=random.Random(3))
        assert (
            WorkloadGenerator(seed=3).initial_population(10)
            == both.initial_population(10)
        )

    def test_planar_generator_rng_injection(self):
        seeded = PlanarWorkloadGenerator(seed=5)
        injected = PlanarWorkloadGenerator(rng=random.Random(5))
        assert seeded.initial_population(30) == injected.initial_population(30)

    def test_route_scenario_rng_injection(self):
        routes = grid_network(lanes=2, span=400.0)
        seeded = RouteScenario(routes, n=40, ticks=6, seed=9)
        injected = RouteScenario(
            grid_network(lanes=2, span=400.0), n=40, ticks=6,
            rng=random.Random(9),
        )
        r1 = seeded.run(validate=True)
        r2 = injected.run(validate=True)
        assert r1.update_count == r2.update_count
        assert r1.answer_sizes == r2.answer_sizes

    def test_scenario_driver_byte_identical(self):
        cfg = WorkloadConfig(
            n=60, updates_per_tick=6, ticks=8, query_instants=2,
            queries_per_instant=5, arrivals_per_tick=2,
            departures_per_tick=1, seed=21,
        )
        runs = []
        for _ in range(2):
            result = Scenario(cfg).run(
                NaiveScanIndex(paper_model(), page_capacity=16),
                SMALL_QUERIES, validate=True,
            )
            runs.append(json.dumps({
                "ios": result.query_ios,
                "answers": result.query_answer_sizes,
                "updates": result.update_ios,
                "mismatches": result.mismatches,
            }).encode())
        assert runs[0] == runs[1]


def replay_to_motions(events):
    """Apply a stream to a dict, asserting service-level legality."""
    motions = {}
    for event in events:
        if event.kind == "register":
            assert event.oid not in motions, f"double register {event.oid}"
            motions[event.oid] = LinearMotion1D(event.y0, event.v, event.t0)
        elif event.kind == "report":
            assert event.oid in motions, f"report for unknown {event.oid}"
            motions[event.oid] = LinearMotion1D(event.y0, event.v, event.t0)
        else:
            assert event.oid in motions, f"deregister unknown {event.oid}"
            del motions[event.oid]
    return motions


class TestStreamLegality:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_events_apply_cleanly_and_respect_model(self, name):
        scenario = build_scenario(
            name, n=60, seed=2, arrivals_per_tick=3, departures_per_tick=2
        )
        events = list(scenario.initial_events())
        for tick in range(1, 7):
            events.extend(scenario.tick_events(float(tick)))
        motions = replay_to_motions(events)
        assert motions.keys() == scenario.motions.keys()
        for event in events:
            if event.kind == "deregister":
                continue
            assert 0.0 <= event.y0 <= scenario.y_max
            assert scenario.v_min <= abs(event.v) <= scenario.v_max


class TestCityScenario:
    def test_vehicles_stay_on_their_routes(self):
        city = CityScenario(n=50, seed=4, updates_per_tick=10)
        events = list(city.initial_events())
        for tick in range(1, 9):
            events.extend(city.tick_events(float(tick)))
        # Every emitted position sits inside the emitting vehicle's
        # current route interval on the global axis.
        live = {}
        for event in events:
            if event.kind == "deregister":
                live.pop(event.oid, None)
                continue
            live[event.oid] = event
        for oid, event in live.items():
            ridx = city.route_of[oid]
            lo = city.route_offsets[ridx]
            hi = lo + city.routes[ridx].length
            assert lo <= event.y0 <= hi

    def test_flash_crowds_fire_and_bias_queries(self):
        city = CityScenario(
            n=60, seed=8, updates_per_tick=5, flash_every=2,
            flash_size=10, hotspot_query_bias=1.0,
        )
        city.initial_events()
        for tick in range(1, 7):
            city.tick_events(float(tick))
        assert city.flash_crowds >= 3
        query = city.random_query(7.0)
        # Hotspot queries are centred near the current hotspot.
        assert abs((query.y1 + query.y2) / 2.0 - city._hotspot) <= (
            city.flash_radius * 3 + 1.0
        )

    def test_rush_hour_biases_direction(self):
        city = CityScenario(
            n=400, seed=6, updates_per_tick=200,
            rush_period=20, rush_amplitude=0.35,
        )
        city.initial_events()
        # Tick 5 is the peak of sin() for period 20: expect a positive
        # direction majority well beyond coin-flip noise.
        events = city.tick_events(5.0)
        reports = [e for e in events if e.kind == "report"]
        positive = sum(1 for e in reports if e.v > 0)
        assert positive / len(reports) > 0.6


class TestGridScenario:
    def test_positions_and_speeds_integral(self):
        grid = GridScenario(n=80, seed=3, grid=500, v_grid=4,
                            updates_per_tick=20)
        events = list(grid.initial_events())
        for tick in range(1, 10):
            events.extend(grid.tick_events(float(tick)))
        for event in events:
            if event.kind == "deregister":
                continue
            assert float(event.y0).is_integer()
            assert float(event.v).is_integer()
            assert 1 <= abs(event.v) <= 4
            assert 0 <= event.y0 <= 500

    def test_bucket_oracle_matches_brute_force(self):
        rng = random.Random(17)
        motions = {
            oid: LinearMotion1D(
                float(rng.randint(0, 300)),
                float(rng.choice([-3, -2, -1, 1, 2, 3])),
                float(rng.randint(0, 5)),
            )
            # Negative oids: an intercept exactly on a bucket's low
            # edge must be found whatever the oid's sign.
            for oid in range(-60, 60)
        }
        oracle = GridScenario.make_oracle(motions)
        objects = [MobileObject1D(o, m) for o, m in motions.items()]
        for _ in range(60):
            y1 = float(rng.randint(0, 280))
            y2 = y1 + rng.randint(0, 40)
            t1 = float(rng.randint(0, 20))
            t2 = t1 + rng.randint(0, 10)
            query = MORQuery1D(y1, y2, t1, t2)
            assert oracle.within(y1, y2, t1, t2) == brute_force_1d(
                objects, query
            )
            assert oracle.snapshot_at(y1, y2, t1) == {
                obj.oid for obj in objects
                if y1 <= obj.motion.position(t1) <= y2
            }

    def test_bucket_oracle_update_delete(self):
        oracle = GridBucketOracle()
        oracle.insert(1, LinearMotion1D(10.0, 2.0, 0.0))
        oracle.insert(2, LinearMotion1D(50.0, -1.0, 0.0))
        assert oracle.within(0.0, 100.0, 0.0, 1.0) == {1, 2}
        oracle.update(1, LinearMotion1D(500.0, 1.0, 0.0))
        assert oracle.within(0.0, 100.0, 0.0, 1.0) == {2}
        oracle.delete(2)
        assert oracle.within(0.0, 1000.0, 0.0, 1.0) == {1}
        assert len(oracle) == 1

    def test_bucket_oracle_rejects_fractional_slopes(self):
        oracle = GridBucketOracle()
        with pytest.raises(ValueError):
            oracle.insert(1, LinearMotion1D(0.0, 0.5, 0.0))


class TestConvoyScenario:
    def test_members_stay_in_declared_bands(self):
        convoy = ConvoyScenario(n=90, seed=12, convoys=5, jitter=0.08,
                                updates_per_tick=30)
        convoy.initial_events()
        for tick in range(1, 8):
            # An object may update twice in one tick (and defect in
            # between); its *last* event is the one drawn against the
            # membership that convoy_of reports after the tick.
            last = {}
            for event in convoy.tick_events(float(tick)):
                last[event.oid] = event
                if event.kind != "deregister":
                    assert convoy.v_min <= abs(event.v) <= convoy.v_max
            for oid, event in last.items():
                if event.kind == "deregister":
                    continue
                lo, hi = convoy.convoy_band(convoy.convoy_of(oid))
                assert lo - 1e-9 <= abs(event.v) <= hi + 1e-9

    def test_defections_switch_convoys(self):
        convoy = ConvoyScenario(n=120, seed=9, convoys=4,
                                defection_rate=0.5, updates_per_tick=60)
        convoy.initial_events()
        before = dict(convoy._member)
        for tick in range(1, 5):
            convoy.tick_events(float(tick))
        assert convoy.defections > 0
        moved = sum(
            1 for oid, cid in convoy._member.items()
            if before.get(oid) != cid
        )
        assert moved > 0


class TestAdversarialScenario:
    def test_everything_lands_on_one_velocity_shard(self):
        shards = 4
        scenario = AdversarialSkewScenario(n=80, seed=1, shards=shards,
                                           target_shard=2,
                                           updates_per_tick=20)
        router = VelocityRouter(shards, scenario.v_max)
        events = list(scenario.initial_events())
        for tick in range(1, 6):
            events.extend(scenario.tick_events(float(tick)))
        routed = {
            router.route(e.oid, LinearMotion1D(e.y0, e.v, e.t0))
            for e in events if e.kind != "deregister"
        }
        assert routed == {scenario.target_shard}

    def test_slopes_cluster_pathologically(self):
        scenario = AdversarialSkewScenario(n=100, seed=2, shards=4,
                                           slope_spread=0.05)
        speeds = sorted(abs(e.v) for e in scenario.initial_events())
        lo, hi = scenario.cluster
        assert speeds[0] >= lo - 1e-9 and speeds[-1] <= hi + 1e-9
        band_lo, band_hi = scenario.band
        # The cluster is a sliver of the router band.
        assert (hi - lo) <= (band_hi - band_lo) * 0.06

    def test_positions_pack_into_sliver(self):
        scenario = AdversarialSkewScenario(n=50, seed=3, shards=4,
                                           position_fraction=0.02)
        for event in scenario.initial_events():
            assert event.y0 <= scenario.y_max * 0.02 + 1e-9


class TestFactory:
    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            build_scenario("motorway", n=10)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_model_params_accepted_by_service(self, name):
        from repro.service import ShardedMotionService

        scenario = build_scenario(name, n=20, seed=0)
        service = ShardedMotionService(
            shards=2, **scenario.model_params()
        )
        for event in scenario.initial_events():
            service.register(event.oid, event.y0, event.v, event.t0)
        assert sum(len(p) for p in service.shard_populations()) >= 20
