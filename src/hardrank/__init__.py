"""Query-hardness-aware ranking toolkit.

Trains a base ranker on all queries and a specialized ranker on
contextually enriched hard queries, estimates per-query hardness with a
trainable QPP model, and combines the two rankers by balanced score fusion,
hardness routing, or hardness-weighted interpolation, with full evaluation
and significance reporting.

Each name is imported from the module that defines it, for example
``from hardrank.fusion import bsf``; importing this package loads no
submodule, but defaults ``OPENBLAS_NUM_THREADS`` to 1: an explicit value
wins, and a numpy imported before hardrank keeps its threads.
"""

import os

# BLAS workers only spin (each product has 6 columns); CI checks the pins at 2 too.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
__version__ = "0.1.0"
