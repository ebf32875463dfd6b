"""The child process of a run: make the run's inputs and pickle them.

    python3 prepare.py <workload> <seed> <sessions> <directory>

``harness.run`` starts this, waits for it to end and reads the file
``harness.PREPARED`` in ``<directory>``.  It is a process of its own so
that neither the agents' memory nor the reference deployment's counts
toward the measuring process's ``peak_rss_mib``; it inherits that
process's CPU pinning.
"""

from __future__ import annotations

import os
import pickle
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

if __name__ == "__main__":
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import harness

    name, seed, sessions, directory = sys.argv[1:]
    prepared = harness.prepare(name, int(seed), int(sessions), directory)
    with open(os.path.join(directory, harness.PREPARED), "wb") as handle:
        pickle.dump(prepared, handle)
