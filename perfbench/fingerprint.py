"""Write the simulated-output fingerprint of each workload for this tree.

Usage (from the repository root of any commit)::

    python3 perfbench/fingerprint.py --seed 1 [--workload chaos_crash ...] [--out FILE]

Runs one untraced round of each workload — no timing, no set-up samples —
and prints (or writes) ``{workload: {seed, fingerprint, attempted, failed}}``
as JSON.  The fingerprint hashes every schedule's status and kills, every
``ExecutionReport``'s virtual times and the simulated iteration count, so
running this on two commits and diffing the outputs shows exactly whether
a change that claims only speed moved any simulated result.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=run.WORKLOAD_NAMES)
    parser.add_argument("--out", help="write the JSON here instead of printing it")
    args = parser.parse_args(argv)
    run.check_tree()
    import workloads

    out = {}
    for name in args.workload or run.WORKLOAD_NAMES:
        wl = workloads.WORKLOADS[name](args.seed)
        errors = wl.setup()
        rnd = wl.run_round()
        out[name] = {
            "seed": args.seed,
            "fingerprint": rnd.fingerprint,
            "attempted": rnd.attempted,
            "failed": len(rnd.failures),
            "check_errors": errors,
        }
    text = json.dumps(out, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
