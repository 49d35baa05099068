"""Work the benchmark runs in a fresh child process.

    python3 bench/child.py generate WORKLOAD_JSON WORKDIR SEED SRC
    python3 bench/child.py setup WORKLOAD_JSON WORKDIR SEED SRC

``generate`` writes a fit workload's input, so that the measured process
has not imported numpy or htefusion before it times its own set-up.
``setup`` times one more set-up (import plus first operation) and prints
it as JSON, so that ``setup_s`` can be a median over several processes.
"""

import json
import sys

import workloads


def main(argv) -> int:
    task, spec, workdir, seed, src = argv
    workload = workloads.from_json(spec)
    if task == "generate":
        workloads.generate_input(workload, workdir, int(seed), src)
        return 0
    if task == "setup":
        _, setup_s, first = workloads.set_up(workload, workdir, int(seed), src)
        print(json.dumps({"setup_s": setup_s, "fits": first.fits,
                          "failed": first.failed, "problems": first.problems}))
        return 0
    raise SystemExit(f"unknown task {task!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
