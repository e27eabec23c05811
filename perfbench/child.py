"""Run `cevian ARGS...` as the `cevian` entry point does, with cevian's
layers traced; the trace summary goes to stderr as one line starting with
``layers.TRACE_MARKER``.  Used by the traced cli_report run:

    PYTHONPATH=src python3 perfbench/child.py tri --sides 3 4 5
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from cevian import cli  # noqa: E402
from layers import TRACE_MARKER, Tracer  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    with tracer.installed():
        code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    print(TRACE_MARKER + json.dumps(tracer.summary()), file=sys.stderr)
    sys.exit(code)
