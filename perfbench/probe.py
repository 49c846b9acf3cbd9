"""Set-up probe: import a workload's modules, build its one-time objects,
print the timings as one JSON line and exit.

`run.py` starts this script several times per run and times each start up
to the printed line, which gives set-up time from process start.

    python3 perfbench/probe.py sol-count
"""

import json
import sys

import jobs

if __name__ == "__main__":
    jobs.use_checkout_program()
    _, timings = jobs.setup(sys.argv[1])
    print(json.dumps(timings), flush=True)
