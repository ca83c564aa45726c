"""Set-up probe: one fresh interpreter, timed from before `import ftrot`
to the end of one small warm-up operation of a workload.

Usage: python3 perfbench/probe.py WORKLOAD SRC_DIR
Prints one JSON object: import_s, first_op_s and the warm-up's own
figures (plan_grid reports the cold walk_expected_steps fill).
"""

import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import ftrot.cli  # noqa: E402  (imports every ftrot module and numpy)

imported = time.perf_counter()
import workloads  # noqa: E402

extra = workloads.WORKLOADS[sys.argv[1]](0).warmup()
done = time.perf_counter()
print(json.dumps(dict(extra, import_s=imported - start, first_op_s=done - imported)))
