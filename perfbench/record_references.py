"""Record the robust optima of the base instances into references.json.

    python3 perfbench/record_references.py

The benchmark checks every run against these values, scaled by the seed's
factor (see instances.py). Record them only from a commit whose results
are trusted; a run that does not converge or fails certification is not
recorded.
"""

import json
import sys

from run import OUT, _import_package


def main() -> int:
    _import_package()
    from instances import build
    from tracing import NullTracer
    from workloads import REFERENCES, WORKLOADS

    objectives = {
        "plan-fullbudget": lambda result: result[0].objective,
        "ladder-mid": lambda entries: [e.solution.objective for e in entries],
        "certify-small": lambda result: result[0][0].objective,
    }
    outdir = OUT / "references"
    outdir.mkdir(parents=True, exist_ok=True)
    references = {}
    for name, workload in WORKLOADS.items():
        result = workload.run(build(workload.shape, None), outdir, NullTracer())
        value = objectives[name](result)
        outcome = workload.check(result, outdir, value)
        if outcome.failed:
            print(f"{name}: not recorded: {outcome.problems}", file=sys.stderr)
            return 1
        references[name] = value
        print(f"{name}: {value}")
    REFERENCES.write_text(json.dumps(references, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
