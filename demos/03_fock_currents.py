"""Truncated level-1 fermionic currents and the Sugawara stress tensor.

Everything is a finite matrix on an energy-cutoff basis, and every operator
knows which columns are truncation-exact.  The three headline numbers: the
level-1 central term, the Virasoro central charge c = dim/(1+g), and the
conformal weights that the charge sectors of the fermionic space realize.
"""

import numpy as np

from loopnet import affine_data, fock, lie, loops

su2 = lie.build_su(2)
data = affine_data.level_data(su2, 1)
space = fock.build_fock(2, 6)
print(f"truncated space: n=2, cutoff 6, dimension {space.dim}")
print(f"energy-0 subspace: {int(np.sum(space.energies == 0))} states "
      "(zero-mode exterior algebra)")

# level-1 relation on the protected block
e = np.array([[0, 1], [0, 0]], complex)
f = np.array([[0, 0], [1, 0]], complex)
lhs = fock.commutator(fock.current(space, e, 1), fock.current(space, f, -1))
rhs = fock.current(space, e @ f - f @ e, 0) \
    + complex(np.trace(e @ f)) * fock.identity_operator(space)
print("level-1 central term residual:", (lhs - rhs).max_protected_abs())

# central charge from the vacuum expectation of [L_2, L_-2]; sugawara reads
# l = 1 and g = n from the space, and c is the exact level-1 value
l2 = fock.sugawara(space, 2)
lm2 = fock.sugawara(space, -2)
iv = space.vacuum_index
got = fock.commutator(l2, lm2).matrix[iv, iv]
print(f"(vac, [L2, L-2] vac) = {got.real:.12f}   (c/2 with c = "
      f"{data.central_charge})")

# conformal weights: lowest L0 eigenvalue per charge sector
l0 = fock.sugawara(space, 0).dense()
for q in (0, 1, -1):
    idx = np.nonzero(space.charges == q)[0]
    low = np.linalg.eigvalsh(l0[np.ix_(idx, idx)]).min()
    print(f"charge {q:+d}: lowest L0 = {low:.12f}")

# implementability defect of a loop on the one-particle space: the Fourier
# formula against the windowed block commutator with the Hardy projection
gamma = loops.loop_from_factors(
    su2, [(su2.basis[0], lambda th: 0.9 * np.sin(th))], 512)
report = fock.hs_defect(loops.loop_fourier_coefficients(gamma), window=128)
print(f"Hardy defect: fourier {report.fourier_value:.10f}, windowed "
      f"{report.truncated_value:.10f}, gap {report.relative_gap:.2e}")

# full identity suite, as the command line runs it
for rep in fock.identity_reports(2, 4, mode_range=2, tol=1e-10):
    print(f"identity {rep['identity']:>15}: residual {rep['residual_max']:.2e} "
          f"on block E <= {rep['block']} -> {'ok' if rep['pass'] else 'FAIL'}")
