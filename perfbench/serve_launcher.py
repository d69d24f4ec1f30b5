"""Start ``repro serve`` under the layer timers, for the traced serve run.

Usage: ``python3 perfbench/serve_launcher.py --trace-out FILE [serve args]``.
The remaining arguments go to ``repro serve`` unchanged.  The daemon runs
exactly as ``python -m repro.cli serve`` would, with :class:`layers.Tracer`
installed for its whole life (``save_checkpoint`` included).  When the
daemon shuts down, every recorded span and a host stamp of this process
are written to ``FILE`` as JSON.
"""

from __future__ import annotations

import argparse
import json

from host import program_stamp
from layers import Tracer
from repro.backend import resolve_backend
from repro.cli import main as repro_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace-out", required=True)
    args, serve_args = ap.parse_known_args()
    tracer = Tracer()
    with tracer:
        code = repro_main(["serve", *serve_args])
    dump = tracer.export()
    dump["stamp"] = program_stamp(resolve_backend("auto").name)
    with open(args.trace_out, "w") as fh:
        json.dump(dump, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
