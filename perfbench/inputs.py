"""Seeded inputs for every workload.

The program under test only ever sees what these functions return: plain
JSON-able parameters for the artifact drivers and wire-format spec
batches for ``repro serve``. Everything is drawn from
``random.Random(seed)``, so one seed always yields identical inputs on
every platform, and the stdlib-only module can be imported without the
program on the path.
"""

from __future__ import annotations

import json
import random

#: The paper's bandwidth (Mbps) and buffer (MSS) sets; RTT is fixed at 42 ms.
PAPER_BANDWIDTHS_MBPS = (20, 30, 60, 100)
PAPER_BUFFERS_MSS = (10, 100)
PAPER_RTT_MS = 42.0

#: FCT arrival seeds the workload seed picks from. A fixed set keeps every
#: input combination covered by a committed reference digest.
FCT_ARRIVAL_SEEDS = tuple(range(1, 9))

#: Driver arguments per scale. ``full`` is the benchmarked scale; ``tiny``
#: only exists so the smoke tests finish in seconds.
ARTIFACT_SCALES = {
    "full": {
        "table1_steps": 1000,
        "claims_steps": 1000,
        "figure1_steps": None,  # the driver's default estimator horizon
        "table2_steps": 2000,
        "emulab_duration": 4.0,
        "fct_duration": 10.0,
        "fct_replications": 2,
    },
    "tiny": {
        "table1_steps": 60,
        "claims_steps": 60,
        "figure1_steps": 60,
        "table2_steps": 60,
        "emulab_duration": 0.3,
        "fct_duration": 4.0,
        "fct_replications": 1,
    },
}


def artifact_inputs(seed: int, scale: str = "full") -> dict:
    """The driver arguments of one artifact workload run.

    The seed draws the Table 1 / Claims link from the paper's sets and the
    FCT arrival seed; Figure 1, Table 2 and Emulab run their default grids.
    """
    rng = random.Random(seed)
    link = [
        float(rng.choice(PAPER_BANDWIDTHS_MBPS)),
        PAPER_RTT_MS,
        float(rng.choice(PAPER_BUFFERS_MSS)),
    ]
    return {
        "scale": scale,
        "link": link,
        "fct_seed": rng.choice(FCT_ARRIVAL_SEEDS),
        **ARTIFACT_SCALES[scale],
    }


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
# Every request is one block of a sweep the repository already runs, so
# the batched lanes see the batch shapes the repository's own drivers and
# lane benchmarks give them:
#
# - fluid: one sender-count row of Table 2 (``experiments.table2``
#   ``friendliness_spec``): for each of the paper's four bandwidths, one
#   Reno sender plus n - 1 senders of Robust-AIMD or of the PCC stand-in.
#   The Robust-AIMD half is one four-row kernel call, as in
#   ``run_table2(batch=True)``, and the PCC half falls back to the serial
#   engine inside the batched lane, as it does there.
# - network: GRID_BLOCK consecutive cells of the 60-cell grid
#   ``benchmarks/bench_batch_matrix.py`` runs through the batched network
#   lane (three flows, its four protocol classes in rotation). Wire specs
#   carry no topology, so each cell runs on its bottleneck link alone.
# - meanfield: GRID_BLOCK consecutive cells of that module's
#   synchronized mean-field sweep.
# - packet: one Emulab grid point (``experiments.emulab._cell_scenarios``):
#   the homogeneous and the mixed-with-Reno scenario of each of the three
#   kernel protocols, starts staggered by a second, slow start.
#
# What sets a request's cost (Table 2's sender count, the grid bandwidth,
# the Emulab buffer) comes from a fixed multiset shuffled per seed, and
# each backend gets the same number of shared requests, so every seed asks
# for the same amount of work. Protocol parameters and grid offsets are
# drawn freely, so every request asks for new simulations except where a
# repeat is meant. The rest is a coverage choice, not taken from any
# source (see NOTES.md): the backend mix, the horizons, GRID_BLOCK (the
# fluid request's size), one stateful cell per network and mean-field
# request (no repository sweep sends one to those lanes, and without it
# their serial engines would run in no workload), one repeated spec per
# request, and every SHARED_EVERY-th request sent by both clients at once.

#: Requests per backend in each client's share of one pass.
SERVE_MIX = {
    "full": {"fluid": 6, "network": 6, "meanfield": 6, "packet": 6},
    "tiny": {"fluid": 1, "network": 1, "meanfield": 1, "packet": 1},
}
#: Grid cells per network and mean-field request.
GRID_BLOCK = 8
#: Every SHARED_EVERY-th request is sent by both clients at once.
SHARED_EVERY = 5

_HORIZON = {
    "full": {"fluid": 500, "network": 500, "meanfield": 500, "packet": 2.0},
    "tiny": {"fluid": 40, "network": 40, "meanfield": 40, "packet": 1.2},
}

#: Table 2: senders per cell; its link is RTT 42 ms, 100 MSS.
_TABLE2_SENDERS = (2, 3, 4)
_TABLE2_BUFFER_MSS = 100.0
#: bench_batch_matrix grid bandwidths: the network grid and the mean-field sweep.
_NETWORK_BANDWIDTHS_MBPS = (20.0, 40.0, 60.0)
_MEANFIELD_BANDWIDTHS_MBPS = (10.0, 20.0, 40.0)
_GRID_CELLS = 20
#: Emulab's buffers at its lower default bandwidth, and its kernel
#: protocols (Cubic scaled to the RTT as ``emulab.default_protocols`` does).
_EMULAB_BANDWIDTH_MBPS = 20.0
_EMULAB_BUFFERS_MSS = (10.0, 100.0)
_EMULAB_PROTOCOLS = ("reno", f"CUBIC({0.4 * (PAPER_RTT_MS / 1e3) ** 3:.6g},0.8)", "scalable")


def _fluid_request(rng: random.Random, n: int, horizon: int) -> list[dict]:
    specs = []
    for bandwidth in PAPER_BANDWIDTHS_MBPS:
        robust = f"Robust-AIMD(1,{rng.randrange(70, 91) / 100:g},{rng.randrange(5, 21) / 1000:g})"
        pcc = f"pcc-like({rng.randrange(30, 71, 5) / 1000:g},{rng.randrange(5, 16) / 1000:g})"
        for protocol in (robust, pcc):
            specs.append({
                "protocols": [protocol] * (n - 1) + ["reno"],
                "bandwidth_mbps": float(bandwidth),
                "rtt_ms": PAPER_RTT_MS,
                "buffer_mss": _TABLE2_BUFFER_MSS,
                "steps": horizon,
                "initial_windows": [1.0] * n,
            })
    return specs


def _network_request(rng: random.Random, bw_index: int, horizon: int) -> list[dict]:
    first = rng.randrange(_GRID_CELLS - GRID_BLOCK + 1)
    offset = rng.randrange(10) / 10
    specs = []
    for cell in range(first, first + GRID_BLOCK):
        i = cell + offset
        a, b, mimd_b = 0.5 + 0.15 * i, 0.2 + 0.03 * i, 0.5 + 0.015 * i
        protocols = [
            [f"AIMD({a:.4g},{b:.4g})"] * 3,
            [f"MIMD({1.0 + 0.005 * (i + 1):.6g},{mimd_b:.4g})"] * 3,
            [f"Robust-AIMD({a:.4g},{b:.4g},{0.02 + 0.001 * i:.4g})"] * 3,
            [f"AIMD({a:.4g},{b:.4g})", f"MIMD({1.0 + 0.004 * (i + 1):.6g},{mimd_b:.4g})",
             f"AIMD({a + 0.1:.4g},{b:.4g})"],
        ][(bw_index + cell) % 4]
        specs.append({
            "protocols": protocols,
            "bandwidth_mbps": _NETWORK_BANDWIDTHS_MBPS[bw_index],
            "rtt_ms": PAPER_RTT_MS,
            "buffer_mss": 100.0,
            "steps": horizon,
            "initial_windows": [1.0] * 3,
        })
    # The stateful cell: its first flow runs CUBIC, so the lane falls back.
    specs[1]["protocols"] = ["cubic"] + specs[1]["protocols"][1:]
    return specs


def _meanfield_request(rng: random.Random, bw_index: int, horizon: int) -> list[dict]:
    first = rng.randrange(_GRID_CELLS - GRID_BLOCK + 1)
    offset = rng.randrange(10) / 10
    specs = []
    for cell in range(first, first + GRID_BLOCK):
        i = cell + offset
        specs.append({
            "protocols": [f"AIMD({1.0 + 0.02 * i:.4g},0.5)"],
            "bandwidth_mbps": _MEANFIELD_BANDWIDTHS_MBPS[bw_index],
            "rtt_ms": PAPER_RTT_MS,
            "buffer_mss": round(10 + i, 1),
            "steps": horizon,
            "flow_multiplicity": int(round(200 + 10 * i)),
            "seed": bw_index * _GRID_CELLS + cell,
        })
    # The stateful cell: a second population, which the lane runs serially.
    specs[1]["protocols"] = specs[1]["protocols"] + ["reno"]
    return specs


def _packet_request(rng: random.Random, buffer_mss: float, horizon: float) -> list[dict]:
    seed = rng.randrange(1, 10**6)
    specs = []
    for protocol in _EMULAB_PROTOCOLS:
        for flows in ([protocol] * 2, [protocol, "reno"]):
            specs.append({
                "protocols": flows,
                "bandwidth_mbps": _EMULAB_BANDWIDTH_MBPS,
                "rtt_ms": PAPER_RTT_MS,
                "buffer_mss": buffer_mss,
                "duration": horizon,
                "start_times": [0.0, 1.0],
                "slow_start": True,
                "seed": seed,
            })
    return specs


#: Request builder and the cost-setting shapes its requests cycle through.
_REQUEST = {
    "fluid": (_fluid_request, _TABLE2_SENDERS),
    "network": (_network_request, tuple(range(len(_NETWORK_BANDWIDTHS_MBPS)))),
    "meanfield": (_meanfield_request, tuple(range(len(_MEANFIELD_BANDWIDTHS_MBPS)))),
    "packet": (_packet_request, _EMULAB_BUFFERS_MSS),
}


def _key(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


def _order(rng: random.Random, mix: dict[str, int]) -> list[str]:
    """Backend per request position, the shared positions spread evenly."""
    positions = sum(mix.values())
    shared = [p for p in range(positions) if p % SHARED_EVERY == SHARED_EVERY - 1]
    names = list(mix)
    rng.shuffle(names)
    order: list[str | None] = [None] * positions
    left = dict(mix)
    for k, position in enumerate(shared):
        order[position] = names[k % len(names)]
        left[order[position]] -= 1
    rest = [name for name, count in left.items() for _ in range(count)]
    rng.shuffle(rest)
    for position in range(positions):
        if order[position] is None:
            order[position] = rest.pop()
    return order


def serve_stream(seed: int, scale: str = "full") -> list[list[dict]]:
    """Each client's ordered request list for one pass.

    A request is ``{"backend", "specs", "shared"}``. Shared requests are
    identical in both lists at the same position (the clients meet at a
    barrier and send them together, so in-flight dedup runs). In every
    request after the first of its backend, the last spec repeats a spec
    of an earlier request on that backend (served by the store,
    within-submission dedup or an in-flight wait). No other spec appears
    twice across requests: a block that would overlap an earlier one is
    drawn again.
    """
    rng = random.Random(seed)
    mix = SERVE_MIX[scale]
    order = _order(rng, mix)
    decks: dict[str, list] = {}
    for name in mix:
        count = sum(1 if p % SHARED_EVERY == SHARED_EVERY - 1 else 2
                    for p, backend in enumerate(order) if backend == name)
        shapes = _REQUEST[name][1]
        decks[name] = [shapes[k % len(shapes)] for k in range(count)]
        rng.shuffle(decks[name])
    history: dict[str, list[dict]] = {name: [] for name in mix}
    seen: set[str] = set()
    clients: list[list[dict]] = [[], []]
    for position, backend in enumerate(order):
        shared = position % SHARED_EVERY == SHARED_EVERY - 1
        build = _REQUEST[backend][0]
        for client in range(1 if shared else 2):
            shape = decks[backend].pop()
            while True:
                specs = build(rng, shape, _HORIZON[scale][backend])
                if not seen.intersection(map(_key, specs)):
                    break
            seen.update(map(_key, specs))
            if history[backend]:
                specs[-1] = dict(rng.choice(history[backend]))
            history[backend].extend(specs)
            request = {"backend": backend, "specs": specs, "shared": shared}
            if shared:
                clients[0].append(request)
                clients[1].append(request)
            else:
                clients[client].append(request)
    return clients
