#!/usr/bin/env python3
"""Survey the second-variation form across the catalog surfaces.

For each surface: run a seeded battery of admissible variations through the
quadratic form, report the smallest total against the quadrature error, and
compare the general evaluation with the closed-form one where a closed form
exists.

Usage: python scripts/stability_survey.py [--battery N] [--seed S] [--n CELLS]
"""

import argparse

from solgeo.stability import (
    battery_test_functions,
    compare_q_forms,
    patch_for_catalog,
    q_form,
    q_form_simplified,
    sufficient_condition,
)

SURFACES = [
    ("plane-x", {}),
    ("plane-y", {}),
    ("plane-z", {}),
    ("plane-ab", {"a": 1.0, "b": 1.0, "c": 0.0}),
    ("saddle-curve", {}),
    ("saddle-point", {}),
]

#: surfaces whose family has a closed-form Q(u)
CLOSED_FORM = ("plane-ab", "saddle-curve")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--battery", type=int, default=25)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--n", type=int, default=12)
    args = ap.parse_args()

    print(f"{'surface':<14} {'min Q(u)':>12} {'max err':>10} {'nonneg':>7}  closed-form")
    for name, params in SURFACES:
        patch = patch_for_catalog(name, params)
        delta = 0.1 * (patch.t_range[1] - patch.t_range[0])
        funcs = battery_test_functions(patch, args.battery, args.seed, delta)
        totals, errors, verdicts = [], [], set()
        for u in funcs:
            rep = q_form(patch, u, grid=(args.n, args.n), delta=delta)
            totals.append(rep.total)
            errors.append(rep.error_estimate)
            if name in CLOSED_FORM:
                simple = q_form_simplified(patch, u, grid=(args.n, args.n), delta=delta)
                comp = compare_q_forms(rep, simple)
                verdicts.add("agree" if comp["agree"] else f"mismatch:{comp['mismatch_term']}")
        ok = all(t >= -e for t, e in zip(totals, errors))
        tag = ",".join(sorted(verdicts)) if verdicts else "-"
        print(f"{name:<14} {min(totals):>12.5f} {max(errors):>10.2e} {str(ok):>7}  {tag}")

    print()
    for name in ("plane-x", "plane-y", "plane-z"):
        patch = patch_for_catalog(name, {})
        rep = sufficient_condition(patch.field, patch, grid=(32, 32))
        print(f"{name}: stability hypothesis met = {rep['condition_met']} "
              f"(sup <N,T> = {rep['sup_NT']:.4f})")


if __name__ == "__main__":
    main()
