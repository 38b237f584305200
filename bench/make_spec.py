"""Regenerate ``BENCHMARK.json`` from the metric tables in ``bench/``.

    python3 -m bench.make_spec > BENCHMARK.json

The bounds and the run length live here; the metric names and units come
from the modules that measure them, so the spec cannot drift from the code.
"""

from __future__ import annotations

import json

from bench.endtoend import END_TO_END_UNITS
from bench.layers import PER_LAYER
from bench.workloads import WORKLOADS

RUN_SECONDS = 30
#: Share of the parent's median by which a metric may worsen.
BOUNDS = {
    "setup_s": 0.25,
    "analyse_s": 0.15,
    "seq_factor_s": 0.15,
    "seq_solve_s": 0.15,
    "mp_factor_s": 0.20,
    "service_factor_p50_s": 0.20,
    "service_solve_p50_s": 0.25,
    "peak_rss_mb": 0.15,
}


def spec() -> dict:
    return {
        "command": ["python3", "-m", "bench.run"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": "lower",
             "bound": BOUNDS[name]}
            for name, unit in END_TO_END_UNITS.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }


if __name__ == "__main__":
    print(json.dumps(spec(), indent=2))
