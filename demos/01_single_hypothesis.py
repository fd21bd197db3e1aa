# Point statistics for a single mediation-style hypothesis.
#
# An EstimatePair holds the two coordinate estimates plus their scales and
# the sample size. The tested functional is the product gamma*beta: it is
# zero exactly when at least one coordinate is zero, which makes the null
# composite (three cases: gamma=0, beta=0, or both).

from twostage import EstimatePair, coord_pvalue, joint_pvalue, product_stat, sobel_stat

e = EstimatePair(gamma_hat=0.21, beta_hat=0.14, sigma_gamma=1.0, sigma_beta=1.0, n=400)

print("product         ", product_stat(e))
print("sobel           ", sobel_stat(e))
print("squared norm    ", e.gamma_hat**2 + e.beta_hat**2)
print("min |coordinate|", min(abs(e.gamma_hat), abs(e.beta_hat)))

# Coordinate-wise two-sided z-tests and their max, the joint-significance
# p-value. The joint test runs at level alpha when exactly one coordinate is
# null but at alpha^2 when both are -- the conservativity the two-stage
# procedure recovers.
print("p_gamma         ", coord_pvalue(e.gamma_hat, e.sigma_gamma, e.n))
print("p_beta          ", coord_pvalue(e.beta_hat, e.sigma_beta, e.n))
print("p_joint         ", joint_pvalue(e))

# The shrinkage view of a two-stage test: keep the statistic when the
# filtration stage rejects, collapse it to the designated value psi0
# otherwise. A weight in [0, 1] shrinks part of the way.
t, psi0 = product_stat(e), 0.0
print("shrink kept     ", t)
print("shrink collapsed", psi0)
print("half shrunk     ", (t - psi0) * 0.5 + psi0)

# The classical super-efficient mean estimator: anything inside the n^-1/4
# ball snaps to zero, buying a faster rate at zero at the cost of bad
# behavior in its shrinking neighborhood.
for mean in (0.4, 0.25, 0.05):
    print(f"hodges({mean}, n=400) ->", mean if abs(mean) > 400 ** -0.25 else 0.0)
