"""Record golden.json: the SHA-256 digest of every output of every input set.

    python3 perfbench/record_golden.py

Run this only at a commit whose outputs are known to be right; a later
change that alters one byte of any output then fails the benchmark.
"""

import json
import os
import sys

from run import ROOT, import_provrun


def main() -> int:
    import_provrun()
    import workloads
    digests = {}
    workdir = ROOT / ".bench_work" / f"record-{os.getpid()}"
    for name, sizes in workloads.DEFAULT_SIZES.items():
        digests[name] = {str(variant): workloads.record(name, variant, sizes, workdir)
                         for variant in range(workloads.VARIANTS)}
        print(f"recorded {name}", file=sys.stderr)
    golden = {
        "variants": workloads.VARIANTS,
        "held_out": list(workloads.HELD_OUT),
        "sizes": workloads.DEFAULT_SIZES,
        "digests": digests,
    }
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
