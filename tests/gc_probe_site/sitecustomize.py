"""On a child interpreter's ``PYTHONPATH`` (``gc_probe.child_env``):
probe the worker this process is about to become."""

import gc_probe

gc_probe.install_from_env()
