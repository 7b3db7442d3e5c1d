"""Write the reference null curves the benchmark checks against.

    python3 perfbench/make_reference.py

Run it only when a change to the null model is meant to move its curves;
the benchmark otherwise requires every computed curve to stay within
0.01 dB of these.
"""

from __future__ import annotations

import json

import workloads as wl


def main() -> None:
    flsim = wl.import_flsim()
    from flsim import runner

    wl.REFERENCE.mkdir(exist_ok=True)
    for base in sorted({w.base for w in wl.WORKLOADS.values()}):
        nulls = runner.compute_null(flsim.load_scenario(base))
        path = wl.REFERENCE / f"null_{base}.json"
        doc = {"scenario": base, "mode": "coupled",
               "total_db": wl.reference_curves(nulls)}
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(wl.ROOT)}")


if __name__ == "__main__":
    main()
