#!/usr/bin/env python3
"""Search small monic cubics x^3 + a x^2 + b x + c for given field
discriminants.  This is how the packaged fixture polynomials were located;
defining polynomials are not unique, so any hit generating the right field
is equivalent for verification purposes."""

import argparse

from modpcurves.cubic import ReduciblePolynomial, analyze_cubic, index_form


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("discs", nargs="+", type=int,
                        help="target field discriminants (negative for complex)")
    parser.add_argument("--coeff-bound", type=int, default=40)
    args = parser.parse_args()
    targets = set(args.discs)
    found = {}
    B = args.coeff_bound
    for a in range(-2, 3):
        for b in range(-B, B + 1):
            for c in range(-2 * B, 2 * B + 1):
                try:
                    K = analyze_cubic((a, b, c))
                except ReduciblePolynomial:
                    continue
                d = K.field_discriminant
                if d in targets and d not in found:
                    found[d] = K
                    form = index_form(K)
                    print(f"{d}: poly ({a},{b},{c}), generator index "
                          f"{K.index_of_generator}, index form {form.coefficients}")
        if targets <= set(found):
            break
    for d in sorted(targets - set(found)):
        print(f"{d}: not found within coefficient bound {B}")


if __name__ == "__main__":
    main()
