"""Set-up probe: the imports and lazy cache fill a workload needs.

    PYTHONPATH=src python3 bench/probe.py <workload>

The benchmark runs this as a fresh process and times it from outside; the
benchmark process itself calls prepare() for the same set-up before its
first operation.
"""

import sys


def prepare(workload: str):
    if workload == "shoot-map":
        from gelshoot import shooting, stability  # noqa: F401
    elif workload == "critical-curve":
        from gelshoot import fixedpoint
        fixedpoint.default_grid()
    elif workload == "evolve":
        from gelshoot import asymptotics, gelsim, greens, stability  # noqa
    else:
        raise ValueError(f"no library set-up for workload {workload!r}")


if __name__ == "__main__":
    prepare(sys.argv[1])
