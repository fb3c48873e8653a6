"""Peak-RSS proof that the spill tier actually bounds memory.

A subprocess runs a tiled multiply whose tiles are *generated inside
tasks* (the driver holds only ``(i, k)`` index pairs, so resident data
cannot hide in the driver's input list) and reports its own
``resource.getrusage`` peak RSS.  Three modes:

Peak RSS is read from ``/proc/self/status`` ``VmHWM`` rather than
``getrusage.ru_maxrss``: on Linux the latter survives ``execve`` from
the forking parent, so a child of a large pytest process would report
the *parent's* high-water mark and the bounds here would be vacuous
(``VmHWM`` is per-``mm`` and resets on exec).  Three modes:

* ``base`` — import the same modules, do no work: the interpreter and
  numpy overhead every mode pays;
* ``capped`` — an 8 MB ``memory_limit`` against a ~40 MB working set of
  partial-product tiles;
* ``uncapped`` — the same job with everything resident.

The capped run must stay within the cap plus a fixed slack over base
(transient per-task tiles, pickle buffers, allocator overhead), while
the uncapped run must exceed a floor that proves the working set is
genuinely larger than the capped bound — otherwise the capped assertion
would be vacuous.  Both engine modes must agree on the checksum.
"""

import os
import subprocess
import sys

import pytest

G = 8  # G x G grid of tiles; G**3 partial products flow through shuffle
TS = 100  # each tile is TS x TS float64 = 80 KB
CAP_BYTES = 8 * 1024 * 1024
#: Slack over base for the capped mode: the cap itself plus transient
#: per-task tiles, pickle/copy buffers, and allocator overhead.
CAPPED_SLACK_KB = 32 * 1024
#: The uncapped mode must exceed this floor over base (the ~40 MB
#: working set held resident), proving the capped bound is non-vacuous.
UNCAPPED_FLOOR_KB = 30 * 1024

WORKER = """
import sys

import numpy as np

from repro.engine import TINY_CLUSTER, EngineContext

G, TS = {g}, {ts}


def partials(ik):
    i, k = ik
    a = np.random.default_rng(1000 + i * G + k).uniform(size=(TS, TS))
    out = []
    for j in range(G):
        b = np.random.default_rng(2000 + k * G + j).uniform(size=(TS, TS))
        out.append(((i, j), a @ b))
    return out


mode = sys.argv[1]
if mode != "base":
    limit = {cap} if mode == "capped" else None
    ctx = EngineContext(cluster=TINY_CLUSTER, memory_limit=limit)
    keys = [(i, k) for i in range(G) for k in range(G)]
    product = (
        ctx.parallelize(keys, G * G)
        .flat_map(partials)
        .reduce_by_key(lambda x, y: x + y, num_partitions=G * G)
    )
    checksum = sum(float(tile.sum()) for _key, tile in product.collect())
    ctx.close()
    print("checksum", round(checksum, 6))
with open("/proc/self/status") as status:
    for line in status:
        if line.startswith("VmHWM:"):
            print("maxrss_kb", int(line.split()[1]))
            break
""".format(g=G, ts=TS, cap=CAP_BYTES)


def _run_mode(mode: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-c", WORKER, mode],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    report = {}
    for line in proc.stdout.splitlines():
        name, _, value = line.partition(" ")
        report[name] = float(value)
    assert "maxrss_kb" in report, proc.stdout
    return report


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status VmHWM")
def test_capped_run_bounds_peak_rss():
    base = _run_mode("base")["maxrss_kb"]
    capped = _run_mode("capped")
    uncapped = _run_mode("uncapped")

    # Same engine, same job: the cap may not change the answer.
    assert capped["checksum"] == uncapped["checksum"]

    over_capped = capped["maxrss_kb"] - base
    over_uncapped = uncapped["maxrss_kb"] - base
    # Non-vacuous: the resident working set really is bigger than the
    # bound we hold the capped run to.
    assert over_uncapped >= UNCAPPED_FLOOR_KB, (
        f"uncapped run only used {over_uncapped:.0f} KB over base; "
        "workload too small to prove anything"
    )
    assert over_capped <= CAPPED_SLACK_KB, (
        f"capped run used {over_capped:.0f} KB over base, "
        f"exceeding the {CAPPED_SLACK_KB} KB budget+slack bound"
    )
