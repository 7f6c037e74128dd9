"""Set-up time of one workload in a fresh interpreter.

Times what a user pays before the first time step: importing memgrid,
parsing the config and, for lattice workloads, building the lattice and its
nodal stamper. Then takes a speed sample of this process (see calibrate.py)
and prints both: set-up seconds and kernel seconds, on one line.

    python3 setup_probe.py CONFIG [grid] [cli]
"""

import sys
import time

t0 = time.perf_counter()
import memgrid  # noqa: E402

if "cli" in sys.argv[2:]:
    import memgrid.cli  # noqa: F401
from memgrid.config import parse_config  # noqa: E402
from memgrid.solver import NodalStamper  # noqa: E402
from memgrid.topology import build_grid  # noqa: E402

with open(sys.argv[1]) as fh:
    cfg = parse_config(fh.read())
if "grid" in sys.argv[2:]:
    network = build_grid(cfg.n, cfg.p_r, cfg.p_i, cfg.seed, cfg.device,
                         source=cfg.source, ground=cfg.ground)
    NodalStamper(network)
setup_s = time.perf_counter() - t0

from calibrate import speed_sample  # noqa: E402

print(repr(setup_s), repr(speed_sample()))
