#!/usr/bin/env python3
"""Why the conj(gamma_k) renormalization is not optional.

For B(z) = z^2 take gamma_k = (-1)^k and a_k = (1 - rate^k) gamma_k, so the
products a_k gamma_k still increase to 1 although gamma_k itself keeps
flipping sign.  The renormalized conjugates converge to the identity
rotation z -> z, but dropping the conj(gamma_k) factor splits the sequence:
even iterates approach z while odd iterates approach -z, so the
un-renormalized sequence has no limit at all.
"""

import numpy as np

from blaschkelab import (
    FiniteBlaschkeProduct,
    SequenceSpec,
    counterexample_run,
)
from blaschkelab.lab import _conjugates

COUNT = 14

res = counterexample_run(COUNT)
print("un-renormalized conjugates of B(z) = z^2 with sign-flipping gamma_k:")
print(f"  last even iterate vs  z : sup deviation {res.even_limit_deviation:.3e}")
print(f"  last odd  iterate vs -z : sup deviation {res.odd_limit_deviation:.3e}")
print(f"  distance between consecutive iterates on |z| <= 0.75: "
      f"{res.unrenormalized_oscillation:.4f}  (stuck near 1.5, never converging)")

print(f"\nrenormalized sequence deviation from z at k={COUNT}: "
      f"{res.renormalized_deviation:.3e}")

print("\nsample values at z = 0.4 (watch the sign of the un-renormalized column):")
B = FiniteBlaschkeProduct.monomial(2)
terms = SequenceSpec(1.0, "alternating", 0.35, COUNT).terms()
z = np.array([0.4 + 0j])
pairs = zip(_conjugates(B, terms, z, renormalize=False), _conjugates(B, terms, z))
for k, (raw, fixed) in enumerate(pairs, start=1):
    print(f"  k={k:2d}  un-renormalized {raw[0].real:+.6f}  renormalized {fixed[0].real:+.6f}")
