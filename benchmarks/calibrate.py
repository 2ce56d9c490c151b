"""Machine-speed calibration for the end-to-end times.

On a shared machine the throughput of one core drifts by a third over
minutes, and every op in a measuring window slows together.  `sample()`
times a fixed piece of pure-Python work shaped like govlab's hot paths
(JSON parse and sorted re-encode, SHA-256 chaining, integer square roots,
set and list building, 50-digit Decimal exponentials) that imports nothing
from govlab, so no change to the program moves it.  The benchmark takes
a sample just before each op and reports each time as
`median(op / sample) * REFERENCE_S`: seconds on a machine where this work
takes REFERENCE_S.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import time
from decimal import Decimal, localcontext

# About the median of sample() on the 2-core Xeon container the benchmark was
# tuned on (0.048 to 0.056 s).  It only sets the scale of the reported times;
# changing it or the work below changes every reported time, so both stay fixed.
REFERENCE_S = 0.05

_LINES = [
    json.dumps(
        {
            "index": i,
            "prev_hash": f"{i * 7919:064x}",
            "payload": json.dumps(
                {"event": "cast", "proposal": f"p{i % 3}", "wallet": f"w{i:05d}",
                 "committed": f"{i * 104729 % 10**6}.{i * 7919 % 10**9:09d}", "tick": i},
                sort_keys=True, separators=(",", ":"),
            ),
            "hash": f"{i:064x}",
        },
        sort_keys=True, separators=(",", ":"),
    )
    for i in range(3000)
]


def _work() -> tuple[str, int, int]:
    prev, acc, wallets = "0" * 64, 0, set()
    for line in _LINES:
        entry = json.loads(line)
        payload = json.loads(entry["payload"])
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        prev = hashlib.sha256(f"{entry['index']}{prev}{text}".encode("ascii")).hexdigest()
        acc += math.isqrt(int(payload["committed"].replace(".", "")) * 10**9)
        wallets.add(payload["wallet"])
    rows = [f"{w},{len(w)}" for w in sorted(wallets)]
    with localcontext() as ctx:
        ctx.prec = 50
        for k in range(1, 40):
            acc += int((1 - (Decimal(-k) / 1000).exp()) * 10**9)
    return prev, acc, len(rows)


def sample() -> float:
    """Seconds taken by the fixed work once, from a collected heap."""
    gc.collect()
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
