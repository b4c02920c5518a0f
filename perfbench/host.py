"""What the benchmark reads from the host: its speed and peak memory.

The shared 2-vCPU VM this benchmark was built on drifts: the same serial
sweep ran at 8.1M to 11.8M ACTs/s in five runs a few minutes apart.  The
drift is the host's, not the program's, so a sweep run times a kernel
that uses none of the program before each invocation, and reports its
end-to-end times as if the host had run that kernel in
``REFERENCE_NOMINAL_S`` (README.md, "Host speed").
"""

import statistics
import time

import numpy as np

REFERENCE_NOMINAL_S = 0.028
"""What :func:`reference_s` took on the 2-vCPU host the bounds were set on."""


def reference_s():
    """Host seconds for a fixed kernel that uses none of the program:
    numpy sorts, scans and scatter-adds plus a Python dict loop, the two
    kinds of work the simulator does.  The median of 5 repetitions, so
    one descheduled slice does not set it."""
    values = np.random.default_rng(0).integers(0, 1 << 20, size=100_000)
    times = []
    for _ in range(5):
        started = time.perf_counter()
        np.cumsum(values[np.argsort(values, kind="stable")])
        unique, inverse = np.unique(values, return_inverse=True)
        np.add.at(np.zeros(len(unique)), inverse, 1.0)
        counts = {}
        for i in range(40_000):
            counts[i & 1023] = counts.get(i & 1023, 0) + 1
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def nominal(raw, speeds):
    """End-to-end metrics on the nominal host.  ``speeds`` holds the
    reference times taken through the run; their median sets the scale:
    times are multiplied by it, rates divided."""
    scale = REFERENCE_NOMINAL_S / statistics.median(speeds)
    out = {}
    for name, value in raw.items():
        if name.endswith("_per_s"):
            out[name] = value / scale
        elif name.endswith("_s"):
            out[name] = value * scale
        else:
            out[name] = value
    return out, scale


def peak_rss_mb(pid="self"):
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
