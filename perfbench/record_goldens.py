"""Record each job's exit code and report as the golden outcome.

    python3 perfbench/record_goldens.py [workload ...]

Run from the root of a source checkout, on a commit whose outputs are known
to be right; the benchmark then fails any job whose outcome differs.
"""

import json
import sys

from run import golden_path, load_program, run_job
from workloads import WORKLOADS


def main(names):
    cli = load_program()
    for workload in names or sorted(WORKLOADS):
        jobs = []
        for argv in WORKLOADS[workload]:
            code, text = run_job(cli, argv)
            jobs.append({"argv": argv, "exit": code, "report": json.loads(text)})
        path = golden_path(workload)
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"workload": workload, "jobs": jobs}, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")
        print("%s: %d jobs, exits %s" % (path.name, len(jobs),
                                         [j["exit"] for j in jobs]))


if __name__ == "__main__":
    main(sys.argv[1:])
