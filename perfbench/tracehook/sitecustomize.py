"""Loaded at interpreter start-up when this directory is on PYTHONPATH.

The traced benchmark run puts it there only for the served processes
(the ``serve`` process and, through the inherited environment, every
cluster worker) and names a dump directory in ``PERFBENCH_TRACE_DIR``.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import spantrace

    spantrace.activate(os.environ["PERFBENCH_TRACE_DIR"])
