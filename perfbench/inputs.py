"""Input generation for the reconstruction benchmark.

Run as a script, apart from the measured process::

    python3 perfbench/inputs.py --workload NAME --seed N --seconds S

It forward-solves the workload's truth equilibrium, draws the measurement
slices from ``--seed`` and writes one ``.npz`` archive to standard output.
The forward solve builds Green tables and fills the program's caches; doing
it here keeps that work out of the measured process, so its set-up starts
cold.  The measured process hands the program only the measurement sets;
the truth flux and current are kept for the output checks.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class Spec:
    """The make-up of one workload's inputs."""

    scenario: str
    grid: int
    #: Distinct cold slices drawn per run (reused in order if a run outlasts them).
    pool: int = 0
    #: Concurrent shot streams (stream workload only).
    streams: int = 0


SPECS = {
    "fit-cold-129": Spec(scenario="g186610", grid=129, pool=64),
    "discharge-65": Spec(scenario="g186610", grid=65, pool=256),
    "stream-dn-65": Spec(scenario="double-null", grid=65, streams=2),
}

#: Frames per second offered on each stream of ``stream-dn-65``: two streams
#: at 4/s offer 8 slices/s, a third of the 22-25 slices/s the service
#: sustained with both streams saturated when the benchmark was written.
#: At half of it, a slower spell of the machine (+20 % per iterate) was
#: enough to build queues and double the latency tail in some runs.
STREAM_RATE = 4.0


def stream_frames(seconds: float) -> int:
    """Frames per stream: the cold first frame plus the scheduled ones."""
    return 1 + math.ceil(seconds * STREAM_RATE)


def _base_shot(spec: Spec):
    from repro.scenarios import get_scenario

    # The base shot is the scenario's registered one (fixed noise draw, as
    # the repository's own examples and CLI use it); the seed varies the
    # per-slice draws around it.  A seed-dependent base draw would move
    # every slice of a run together and dominate the run-to-run spread.
    return get_scenario(spec.scenario).make_shot(spec.grid)


def generate(workload: str, seed: int, seconds: float) -> dict:
    """All arrays of one run's inputs, keyed for ``numpy.savez``."""
    import numpy as np

    from repro.batch import synthetic_slice_sequence

    spec = SPECS[workload]
    shot = _base_shot(spec)
    if spec.streams:
        n = stream_frames(seconds)
        streams = [
            synthetic_slice_sequence(shot, n, seed=16 * seed + k)
            for k in range(spec.streams)
        ]
    else:
        streams = [synthetic_slice_sequence(shot, spec.pool, seed=seed)]
    return {
        "values": np.array([[m.values for m in s] for s in streams]),
        "uncertainties": np.array([[m.uncertainties for m in s] for s in streams]),
        "coil_currents": np.array([[m.coil_currents for m in s] for s in streams]),
        "names": np.array(shot.measurements.names),
        "psi_truth": shot.truth.psi,
        "ip_truth": np.array(float(shot.truth.pcurr.sum())),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy as np

    buf = io.BytesIO()
    np.savez(buf, **generate(args.workload, args.seed, args.seconds))
    sys.stdout.buffer.write(buf.getvalue())
    sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
