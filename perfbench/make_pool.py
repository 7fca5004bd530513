"""Regenerate pool.json: the pointwise workload's lambda pool and reference D.

The pool holds lambda right of the alpha-weighted essential spectrum, in the
upper half plane so that each conjugate is a distinct second evaluation.  The
reference Evans values are computed at nsub=40 substeps per grid cell, four
times finer than the default march, so RK4 truncation in the reference
(~3e-13 relative) sits far below that of the default nsub=10 (~1e-10); the
pointwise workload reports how many digits its own march agrees to.

Usage: python3 perfbench/make_pool.py   (rewrites perfbench/pool.json)
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from dpstab import _backend, evans  # noqa: E402
from dpstab.wave import WaveParams, solve_profile  # noqa: E402

# the profile every pointwise call reuses (the CLI defaults for k=0.1, c=1)
SETTING = {"k": 0.1, "c": 1.0, "L": 40.0, "h": 0.02, "alpha": 0.5}
N = 12  # pool size; the pointwise workload picks one lambda by seed
NSUB = 40  # reference substeps per grid cell
OUT = HERE / "pool.json"


def main() -> None:
    rng = random.Random(20260417)
    lams = [complex(round(rng.uniform(0.3, 1.5), 6), round(rng.uniform(0.2, 1.2), 6))
            for _ in range(N)]
    s = SETTING
    prof = solve_profile(WaveParams(s["k"], s["c"]), L=s["L"], h=s["h"])
    D, _ = evans.evans_batch(lams, prof, alpha=s["alpha"], nsub=NSUB)
    pool = {
        **SETTING,
        "nsub": NSUB,
        "backend": _backend.backend_name(),
        "lambdas": [[z.real, z.imag] for z in lams],
        "D": [[complex(d).real, complex(d).imag] for d in D],
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(lams)} lambda with nsub={NSUB} reference D to {OUT}")


if __name__ == "__main__":
    main()
