"""Write reference.json: per workload, the graph edge counts and the
training loss of the fixed-seed probe (see worker.probe).

Run from the repository root, only when the reference outputs are meant
to change:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py
"""

import json

from worker import REFERENCE, WORKLOADS, probe

if __name__ == "__main__":
    reference = {name: probe(wl) for name, wl in WORKLOADS.items()}
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(json.dumps(reference, indent=2, sort_keys=True))
