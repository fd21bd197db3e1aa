# Classifying the filtration regime of a drifting parameter sequence.
#
# A ParamSequence describes how the true pair moves with the sample size,
# e.g. gamma_n = 3*n**-0.5. For the product filter |T| < c*n**-delta, two
# limits decide the shrinkage estimator's fate: the filtration probability
# region (via the auxiliary limit A) and the standardized distance K. With
# filtration probability 1 the MSE-ratio tends to K^2; with probability 0
# the estimator is indistinguishable from the plain product. Both limits are
# exact, from the leading term of each coordinate.

from twostage import ParamSequence, classify_product_regime

cases = [
    ("n^-0.6",    "n^-0.6",    1.0, 0.8),   # fast decay: super-efficient
    ("n^-0.5",    "n^-0.5",    4.0, 0.7),   # root-n drift: K = 1/sqrt(3)
    ("2n^-0.5",   "2n^-0.5",   4.0, 0.7),   # larger drift: K = 4/3, ratio worsens
    ("2n^-0.4",   "n^-0.4",    4.0, 0.7),   # slow drift: K = inf, though K_n is only 5.6 at n = 1e8
    ("0.7n^-0.5", "0.7n^-0.5", 2.5, 1.0),   # interior filtration probability
    ("n^-1",      "n^-1",      2.5, 1.5),   # threshold shrinks too fast: no filtering
    ("1",         "1",         3.0, 1.0),   # fixed alternative: never filtered
]

for gamma, beta, c, delta in cases:
    r = classify_product_regime(ParamSequence.parse(gamma, beta), c, delta)
    print(
        f"gamma={gamma:>10s} beta={beta:>10s} c={c:<4g} delta={delta:<4g} -> "
        f"L-region={r.L_region.value:<9s} K={r.K_value:<8.4f} {r.efficiency_class.value}"
    )
