"""Every numerical tolerance of the package, in one table.

Each value decides one question of the computation: Hermitian or not,
orthonormal or not, degenerate or not, commuting or not, converged or not.
Values that agree but bound different quantities keep their own names. The
comment on each value names the quantity it bounds. The module imports
nothing, so any module can read it.
"""

# Hermitian eigendecomposition (linalg)
HERMITICITY_TOL = 1e-9  # ||H - H^dagger||_F <= tol * ||H||_F: relative, Frobenius norm
EIGENVECTOR_GRAM_TOL = 1e-10  # ||G - I||_F, G_ij = <v_i|v_j> of computed eigenvectors: absolute, Frobenius
RECONSTRUCTION_TOL = 1e-9  # ||sum_j w_j |v_j><v_j| - (H + H^dagger)/2||_F <= tol * max(1, ||H||_F): relative
UNIT_NORM_TOL = 1e-12  # | ||v||_2 - 1 | of the vector given to linalg.projector: absolute
PHASE_FLOOR = 1e-12  # smallest |amplitude| fix_phases takes as a row's leading amplitude: absolute
# A guessed top eigenpair (rho, g) is kept only with a proof that lambda_max < rho + shift * tr A: Kato-Temple
# with a Wolkowicz-Styan bound on lambda_2, from rho, ||A g - rho g||, tr A and ||A||_F; any other goes to eigh
WARM_CERTIFICATE_SHIFT = 1e-13  # certified distance of a kept guess's value below lambda_max: relative to tr A

# Bases, observables and signal ensembles (observables, documents)
BASIS_GRAM_TOL = 1e-10  # max_ij | |<v_i|v_j>|^2 - delta_ij | and ||sum_j |v_j><v_j| - I||_F: absolute
INPUT_BASIS_TOL = 1e-9  # the same two errors for a basis item of an input document: absolute
DEGENERACY_TOL = 1e-8  # smallest gap between adjacent eigenvalues of an observable: absolute
COMMUTATION_TOL = 1e-9  # max ||[P_j, Q_l]||_F of unit-scale projectors, and 1 - Tr(P_j Q_l): absolute
MUB_TOL = 1e-10  # |<a_j|b_l>|^2 off 1/d across bases, or off delta_jl within one, in max norm: absolute
STATE_NORM_TOL = 1e-10  # max_k | ||v_k||_2 - 1 | over the states of a signal ensemble: absolute

# Measurements and resend directions (fidelity)
COMPLETENESS_TOL = 1e-9  # ||sum_a m_a |chi_a><chi_a| - I||_F and |sum_a m_a - d| of a POVM: absolute
DIRECTION_NORM_TOL = 1e-10  # max_a | ||chi_a||_2 - 1 | over the directions of a POVM or resend map: absolute
INPUT_TRACE_TOL = 1e-9  # |Tr rho - 1| of the state given to fidelity.ensemble_map: absolute
FRAME_FLOOR = 1e-12  # lambda_min of sum_a |chi_a><chi_a| below which random directions do not span

# See-saw search and certificates (optimizer)
CONVERGENCE_EPS = 1e-10  # default per-sweep fidelity gain below which a start has converged: absolute
WEIGHT_PRUNE_EPS = 1e-12  # POVM weight below which the measurement update drops an outcome: absolute
MONOTONE_TOL = 1e-12  # fall of the fidelity between sweeps that raises NonMonotoneError: absolute
PINV_CUTOFF = 1e-12  # update-operator eigenvalues <= cutoff * lambda_max are off its support: relative
BOUND_SLACK = 1e-9  # slack of the closed-form certificates on fidelity and incompatibility: absolute
# eigvalsh is backward stable: its lambda_max of the d^2 x d^2 matrix sum_k P_k (x) P_k is off by
# a small multiple of n * eps * lambda_max, n = d^2; the cap adds this many units of d^2 * lambda_max
SPECTRAL_CAP_SLACK = 1e-14  # rounding pad of the spectral cap on F, per unit of d^2: relative to lambda_max
# the same for the top eigenvalue mu_b of the n_b x n_b Gram matrix of a block of the collision-sum cap
COLLISION_CAP_SLACK = 1e-14  # rounding pad of the collision-sum cap on mu_b, per unit of n_b: relative to mu_b
BLOCK_SPLIT_TOL = 1e-6  # largest |<v_k|v_l>| of signal kets in different blocks of the collision-sum cap: absolute
GAP_TOL = 1e-12  # cap minus best F at which a search stops and is certified-within-gap: absolute
TIE_TOL = 1e-12  # fall below the best start's F within which an earlier start is reported: absolute
# a see-saw start is retired once the best F leads its F by more than its largest recent gain per sweep,
# kept up over every sweep left, plus this margin
RETIRE_MARGIN = 1e-9  # lead of the best start's F over a start's F that retires it, beyond its reach: absolute

# Entropic bound and its failure demonstration (entropic)
PROB_FLOOR = 1e-15  # outcome probabilities at or below it add nothing to an entropy: absolute
# A bound below VACUOUS_TOL has c within roundoff of 1, which on the test corpus
# happens exactly when the pair shares an eigenvector.
VACUOUS_TOL = 1e-9  # entropy bound (bits) at or below which it is vacuous: absolute
SHARED_VECTOR_TOL = 1e-12  # | |<a_0|b_0>|^2 - 1 | of the demonstration pair's shared vector: absolute
DEMO_ENTROPY_TOL = 1e-12  # entropy bound and entropy sum (bits) the demonstration needs to vanish: absolute
DEMO_MIN_INCOMPATIBILITY = 1e-3  # incompatibility the demonstration needs to exceed: absolute
