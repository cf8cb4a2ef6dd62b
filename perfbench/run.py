"""greensched benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload search-var-intel --seed 1 --seconds 30 --trace 0

Workloads: ``search-var-intel``, ``search-min-amd``, ``replay``.  ``--trace 1``
reports per-layer metrics instead of end-to-end ones.  The program is
imported from the checkout's ``src``; without it the run exits with code 2.
"""

import os
import sys
from pathlib import Path

# One thread per numeric library, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def _import_checkout() -> None:
    src = ROOT / "src"
    if not (src / "greensched" / "__init__.py").is_file():
        print(f"error: no greensched sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import greensched

    if not Path(greensched.__file__).resolve().is_relative_to(src):
        print(f"error: greensched imported from {greensched.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    _import_checkout()
    from gsbench import runner

    sys.exit(runner.main(sys.argv[1:], ROOT))
