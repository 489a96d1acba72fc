"""Closed-loop regression: fixed-seed sessions reproduce their fixture.

``tests/golden/closed_loop.json`` pins the flows, counters and receiver
stats of short fixed-seed sessions — a single hidden-stream cell, a
mutually hidden clique, the default and probabilistic sense draws, a
spec-built clique, an idle and a sparse offered-load cell and a
coupled 3-AP block, each under the ZigZag and 802.11 designs (see
``tests/golden/closed_loop.py``). Receive-path
optimizations promise identical output; these tests hold them to it
across the whole loop, not just the offline decode the ``.npz`` vectors
pin.

After an *intentional* behavior change, regenerate with::

    PYTHONPATH=src python tests/golden/closed_loop.py
"""

import importlib.util
import json
import pathlib

import pytest

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

_spec = importlib.util.spec_from_file_location(
    "golden_closed_loop", GOLDEN_DIR / "closed_loop.py")
closed_loop = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(closed_loop)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(closed_loop.FIXTURE.read_text())


@pytest.fixture(scope="module")
def fresh():
    return closed_loop.run_all()


def test_fixture_covers_every_case(pinned, fresh):
    assert sorted(fresh) == sorted(pinned)


@pytest.mark.parametrize("case", [
    f"{name}/{design}"
    for name in (*closed_loop.STREAM_CASES, "block3")
    for design in closed_loop.DESIGNS
])
def test_session_matches_fixture(pinned, fresh, case):
    assert fresh[case] == pinned[case], (
        f"{case}: the closed loop's outcome changed. If intentional, "
        f"regenerate tests/golden/closed_loop.json.")


def test_fixture_exercises_the_zigzag_paths(pinned):
    """The pinned sessions are not trivially clean: ZigZag resolves
    pairs and k = 3 sets, and beats 802.11 on the hidden pair; the idle
    cell skips most of its air."""
    stream = pinned["hidden_stream7/zigzag"]["receiver_stats"]
    assert stream["zigzag_matches"] > 0
    assert pinned["clique7/zigzag"]["receiver_stats"][
        "multiway_matches"] > 0
    delivered = {
        design: sum(flow[1] for flow in pinned[
            f"hidden_stream7/{design}"]["flows"].values())
        for design in closed_loop.DESIGNS
    }
    assert delivered["zigzag"] > delivered["802.11"]
    for design in closed_loop.DESIGNS:
        counters = pinned[f"idle_load7/{design}"]["counters"]
        assert counters["samples_skipped"] > counters["samples_emitted"]


@pytest.mark.parametrize("design", closed_loop.DESIGNS)
def test_sparse_load_session_ends_before_the_cap(fresh, design):
    """At a 0.5% offered load, six Poisson arrivals per client span
    more air than the MAC's worst case. The derived runaway cap must
    allow for the arrival gaps: every packet resolves, none is cut off."""
    case = fresh[f"sparse_load7/{design}"]
    assert not case["timed_out"]
    assert all(flow[0] == closed_loop.STREAM_PACKETS
               for flow in case["flows"].values())
