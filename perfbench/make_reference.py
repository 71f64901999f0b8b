"""Regenerate ``reference.json``, the expected outputs the benchmark checks.

    python3 perfbench/make_reference.py

Runs every input the workloads can draw -- ``fnr verify`` at phase 0, the
certificate seeds 1..16 with and without ``--mutate``, and every radius of
the atlas pool -- and records the output digests and values.  The file
freezes the outputs of the commit it was made on; a later change that alters
any of these bytes (or a verify measurement by more than 1e-12) fails the
benchmark's correctness gate.  Takes a few minutes on one core.
"""

import json
import sys

import run


def facts_of(ops) -> list:
    out = []
    for op in ops:
        found = op.facts(op.run())
        problems = run.mismatches(op.expect, found)
        if problems:
            sys.exit(f"{op.label}: {problems}")
        out.append(found)
    return out


def main() -> int:
    run.pin_environment()
    fnr = run.load_fnr()
    reference = {"verify": {}, "certify": {}, "atlas": {}}

    # Phase 0 is a = 1; by the paper every other phase gives the same
    # measurements, which the gate checks to 1e-12.
    verify = run.verify_phase_ops(fnr, 0.0, None)
    (found,) = facts_of(verify)
    reference["verify"]["checks"] = found["checks"]

    for cert_seed in range(1, run.CERT_SEEDS + 1):
        certify, mutate = facts_of(run.certify_ops(fnr, cert_seed - 1, None))
        keys = ("resultant.json", "resultant.txt")
        reference["certify"][str(cert_seed)] = {
            "certify": {k: certify[k] for k in keys},
            "mutate": {k: mutate[k] for k in keys},
        }

    for row in run.atlas_pool():
        for text in row:
            boundary, lines, gap, *classify = facts_of(run.atlas_radius_ops(fnr, text, {}))
            reference["atlas"][text] = {
                "boundary": {k: boundary[k] for k in ("boundary.csv", "boundary.svg")},
                "support-lines": {k: lines[k] for k in ("support_lines.csv", "support_lines.svg")},
                "ellipse_gap": gap,
                "classify_point": "".join(found["label"][0] for found in classify),
            }

    with open(run.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(run.REFERENCE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
