"""One cold `govlab run` in a fresh interpreter, for the setup_s metric.

Usage: cold_start.py SRC_DIR SCENARIO REPORT LEDGER CSV

Times `import govlab` plus the first `govlab run` of the process and prints
{"setup_s", "peak_rss_mib", "code", "stdout", "module"} as one JSON line.
Only sys and time are imported before the clock starts, so every module
govlab needs is paid for.
"""

import sys
import time

start = time.perf_counter()
src, scenario, report, ledger, csv_path = sys.argv[1:]
sys.path.insert(0, src)

import io  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

import govlab.cli  # noqa: E402

out = io.StringIO()
with redirect_stdout(out), redirect_stderr(io.StringIO()):
    code = govlab.cli.main(
        ["run", "--scenario", scenario, "--out", report, "--ledger", ledger, "--csv", csv_path]
    )
elapsed = time.perf_counter() - start

import json  # noqa: E402

# VmHWM is this process's own high-water mark.  ru_maxrss is not: across
# exec it keeps the parent's peak, which would leak the measuring process in.
with open("/proc/self/status", encoding="ascii") as fh:
    peak_rss_mib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
print(json.dumps({
    "setup_s": elapsed, "peak_rss_mib": peak_rss_mib, "code": code,
    "stdout": out.getvalue(), "module": govlab.cli.__file__,
}))
