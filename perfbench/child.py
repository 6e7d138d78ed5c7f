"""One benchmark run process: import lodfem from src/ and run one CLI call.

    python3 perfbench/child.py RESULT_JSON SPANS_JSONL|- [CLI ARGS...]

The process records the CLOCK_MONOTONIC time at which the import of the
package (with its `cli` entry module) returned, so the parent can time set-up
from its own spawn time.  With no CLI arguments it only imports and exits.
With a spans path other than `-` the calls into each module are traced and
the spans are written there when the call ends.  The result file holds the
import time, the CLI exit code and the library versions.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv):
    result_path, spans_path, cli_args = argv[0], argv[1], argv[2:]
    from lodfem import cli
    import_done = time.clock_gettime(time.CLOCK_MONOTONIC)

    import numpy
    import scipy
    result = {"import_done": import_done, "exit_code": None,
              "python": sys.version.split()[0], "numpy": numpy.__version__,
              "scipy": scipy.__version__}
    tracer = None
    if spans_path != "-":
        import tracer as tracing
        tracer = tracing.Tracer(os.path.splitext(os.path.basename(spans_path))[0])
        tracing.install(tracer)
    try:
        result["exit_code"] = cli.main(cli_args) if cli_args else 0
    finally:
        if tracer is not None:
            tracer.write(spans_path)
        with open(result_path, "w") as fh:
            json.dump(result, fh)
    return result["exit_code"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
