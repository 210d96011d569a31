"""A fixed load, independent of shadowmot, whose wall time tracks the host.

    python3 perfbench/hostload.py

It imports numpy and scipy.optimize, then runs small numpy operations,
Hungarian matching and scalar float arithmetic: the mix every shadowmot
command is made of.  The runner times it as a child at the end of each
round and scales the round's times by it (see `run.run_untraced`).
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

rng = np.random.default_rng(0)
boxes = rng.random((60, 4))
total = 0.0
for i in range(600):
    lo = np.maximum(boxes[:, None, :2], boxes[None, :, :2])
    hi = np.minimum(boxes[:, None, 2:], boxes[None, :, 2:])
    total += float(np.clip(hi - lo, 0.0, None).prod(axis=2).sum())
    if i % 40 == 0:
        rows, cols = linear_sum_assignment(boxes[:12, :3] @ boxes[:12, :3].T)
        total += float(cols.sum())
    for j in range(40):
        cx, w = (i * 40 + j) * 1e-5, (j % 7) * 0.01
        total += max(0.0, min(cx + w, 0.5) - max(cx, 0.25)) * w
