#!/usr/bin/env python3
"""Per-point engine and build cost from a traced run's span file.

Usage: python3 hostbench/summarize.py hostbench/out/trace-<workload>-seed<n>.jsonl

For every grid point that ran the simulator inside the traced pass,
prints its controller count, simulated events, and the median over
traced passes of `System::run` nanoseconds per event,
`SystemSpec::build` microseconds per controller, and the compile time
of the points that compiled their key, sorted by size.
"""

import json
import statistics
import sys
from collections import defaultdict


def main(path):
    spans = {"sim.run": defaultdict(list), "sim.build": defaultdict(list), "compiler.compile": defaultdict(list)}
    counts = {}
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            if "counts" in row:
                counts[row["point"]] = row["counts"]
            elif row["point"] is not None and row["name"] in spans:
                spans[row["name"]][row["point"]].append(row["end_ns"] - row["start_ns"])
    run_ns, build_ns, compile_ns = spans["sim.run"], spans["sim.build"], spans["compiler.compile"]
    rows = []
    for point, c in counts.items():
        controllers, events = c.get("sim.controllers", 0), c.get("sim.events", 0)
        if not run_ns[point] or not events:
            continue
        rows.append((
            controllers,
            events,
            statistics.median(run_ns[point]) / events,
            statistics.median(build_ns[point]) / 1e3 / controllers,
            statistics.median(compile_ns[point]) / 1e6 if compile_ns[point] else float("nan"),
            point,
        ))
    print(f"{'point':>5} {'controllers':>11} {'events':>10} {'run ns/event':>12} {'build us/ctrl':>13} {'compile ms':>10}")
    for controllers, events, per_event, per_ctrl, compile_ms, point in sorted(rows):
        print(f"{point:>5} {controllers:>11} {events:>10} {per_event:>12.1f} {per_ctrl:>13.2f} {compile_ms:>10.1f}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
