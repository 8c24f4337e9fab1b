"""What a serving process imports.

``networkx`` (and scipy-sized transitive imports behind it) is only needed
by the offline serializability checkers and ``RuntimeTraces``' graph
methods, which import it where they build a graph.  Importing the service
must not pay for it: ~14 MiB of resident memory and ~70 ms of start-up.
"""

from __future__ import annotations

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_serving_process_does_not_import_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import repro.net.service, sys; assert 'networkx' not in sys.modules",
        ],
        check=True,
        env=env,
        timeout=60,
    )
