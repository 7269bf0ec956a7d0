"""Write ``reference_map_large.json``: map-large node metrics for the default seed.

    python3 bench/make_reference.py

The map-large oracle compares every op run with the default seed against
these values at 1e-9 relative, so a change to the analysis numbers shows up
as failed ops. Regenerate only when a numeric change is intended.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ttlnet import network  # noqa: E402
from workloads import DEFAULT_SEED, REFERENCE_PATH, map_large_docs  # noqa: E402

# Sweep points 0 (the warm-up) to 8 cover every op a run reaches today.
POINTS = 9


def main() -> None:
    points = {}
    for point in range(POINTS):
        docs = map_large_docs(DEFAULT_SEED, point)
        points[str(point)] = {
            key: network.analyze(network.parse_topology(doc)).to_dict()["nodes"]
            for key, doc in docs.items()
        }
    payload = {"seed": DEFAULT_SEED, "points": points}
    REFERENCE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
