"""Record the gains of every default-seed instance in reference_gains.json.

    python3 bench/make_reference.py

`run.py` checks these gains, to 1e-9 relative, whenever it runs with the
default seed.  Re-record only when a change to the solver is meant to move
them, and say so in the change.
"""

from __future__ import annotations

import os
import shutil
import sys

from run import ROOT, SRC

sys.path.insert(0, SRC)

from meanfield_lq import model, recursion  # noqa: E402

from workloads import DEFAULT_SEED, REFERENCE_FILE, LongHorizon, McPaths, TreeCertify  # noqa: E402


def main() -> None:
    work = os.path.join(ROOT, ".bench_work", "reference")
    os.makedirs(work, exist_ok=True)
    try:
        doc = {}
        for cls in (LongHorizon, TreeCertify, McPaths):
            wl = cls(DEFAULT_SEED, work)
            wl.setup()
            doc[wl.name] = {}
            for inst, p in wl.problems.items():
                _, gains, _ = recursion.solve_gdre_global(p)
                doc[wl.name][inst] = {"Psi": gains.Psi, "alpha": gains.alpha}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        fh.write(model.canonical_dumps(doc))
        fh.write("\n")


if __name__ == "__main__":
    main()
