"""A traced socket worker: install the timing wrappers, then serve the
master through the product's own ``nice worker`` path.

Only the traced pass of ``lb3_socket2`` uses this (untraced samples let
the product spawn its workers); see ``workloads.Lb3Socket2``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import trace as layer_trace


def main() -> int:
    address, tracedir = sys.argv[1], Path(sys.argv[2])
    layer_trace.install(layer_trace.Tracer(tracedir))
    from repro.mc.transport.socket import run_worker

    return run_worker(address, retries=8, retry_max_wait=1.0)


if __name__ == "__main__":
    sys.exit(main())
