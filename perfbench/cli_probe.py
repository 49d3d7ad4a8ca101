"""Run one gpnf CLI command and report its import and dispatch times.

Used by the traced run in place of ``python -m gpnf.cli``.  The command's
own output goes to stdout unchanged; the last line on stderr is
``PERFBENCH_PROBE {"import_s": ..., "dispatch_s": ..., "code": ...}``.
"""

import json
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import gpnf.cli
    t1 = time.perf_counter()
    code = gpnf.cli.dispatch(sys.argv[1:])
    t2 = time.perf_counter()
    sys.stdout.flush()
    print("PERFBENCH_PROBE " + json.dumps(
        {"import_s": t1 - t0, "dispatch_s": t2 - t1, "code": code}),
        file=sys.stderr)
    sys.exit(code)
