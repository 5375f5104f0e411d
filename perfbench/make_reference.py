"""Regenerate ``reference.json``, the committed artifact digests.

Runs one fill pass per input combination the seeds can draw: every paper
link for Table 1 and Claims, paired with every FCT arrival seed. Figure 1,
Table 2 and Emulab do not depend on the seed; their digests must agree
across all passes. Rerun only when a change is meant to alter results:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import itertools
import json
import shutil
import sys

import inputs
import run


def digests_for(scale: str) -> dict:
    links = list(itertools.product(inputs.PAPER_BANDWIDTHS_MBPS, inputs.PAPER_BUFFERS_MSS))
    seeds = inputs.FCT_ARRIVAL_SEEDS
    table: dict = {"table1": {}, "claims": {}, "fct": {}}
    env = run.isolated_env()
    for index in range(max(len(links), len(seeds))):
        bandwidth, buffer = links[index % len(links)]
        args = dict(inputs.artifact_inputs(0, scale),
                    link=[float(bandwidth), inputs.PAPER_RTT_MS, float(buffer)],
                    fct_seed=seeds[index % len(seeds)])
        store = run.WORK_ROOT / f"reference-{scale}-{index}"
        try:
            _, result = run._launch_worker(
                ["--mode", "fill", "--store", str(store), "--inputs", json.dumps(args)], env
            )
        finally:
            shutil.rmtree(store, ignore_errors=True)
        record = result["passes"][0]
        if record["errors"]:
            raise SystemExit(f"{scale} pass {index} failed: {record['errors']}")
        digests = record["digests"]
        table["table1"][f"{bandwidth:g}/{buffer:g}"] = digests["table1"]
        table["claims"][f"{bandwidth:g}/{buffer:g}"] = digests["claims"]
        table["fct"][str(args["fct_seed"])] = digests["fct"]
        for name in ("figure1", "table2", "emulab"):
            if table.setdefault(name, digests[name]) != digests[name]:
                raise SystemExit(f"{scale} {name} digest depends on the inputs")
        print(f"{scale} {index}: link {bandwidth}/{buffer} fct_seed {args['fct_seed']}",
              flush=True)
    return table


def main() -> int:
    reference = {scale: digests_for(scale) for scale in ("full", "tiny")}
    run.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
