# The two-stage procedure on one batch of hypotheses, plus its FWER bounds.
#
# Stage 1 filters hypotheses that look like the double null; stage 2 applies
# the joint-significance test to the F survivors at threshold alpha/F. The
# filtration-aware variant multiplies the threshold by p0, the survival
# probability at the double null, which restores a finite-sample FWER
# guarantee at level alpha.

import numpy as np

from twostage import (
    EstimatePair,
    FiltrationAware,
    ProductThreshold,
    builtin_scenario,
    exact_fwer_bound,
    fwer_bound_from_survivors,
    run_two_stage,
)

rng = np.random.default_rng(7)
n, m = 400, 120
sd = 1.0 / np.sqrt(n)

# 100 double nulls, 12 single nulls, 8 alternatives
means = [(0.0, 0.0)] * 100 + [(0.25, 0.0)] * 12 + [(0.2, 0.2)] * 8
estimates = [
    EstimatePair(rng.normal(g, sd), rng.normal(b, sd), 1.0, 1.0, n) for g, b in means
]

rule = ProductThreshold(c=2.0, delta=0.9)
out = run_two_stage(estimates, rule, alpha=0.05)
print(f"plain Bonferroni over survivors: F={out.F}, rejected={out.rejected_count}, "
      f"threshold={out.threshold:.2e}")

# p0: how often the double null survives this filter. Both z-statistics are
# standard normal there, so p0 = P(|Z1 Z2| >= c n^(1-delta)) exactly.
p0 = rule.p0(1.0, 1.0, n)
print(f"double-null survival probability p0 = {p0:.4f}")

aware = run_two_stage(estimates, rule, alpha=0.05, adjustment=FiltrationAware(p0))
print(f"filtration-aware threshold alpha*p0/F: rejected={aware.rejected_count}, "
      f"threshold={aware.threshold:.2e}")

# The survivor-count bound: P(any false rejection) <= E[1 - (1 - q)^F], with q
# bounding the per-hypothesis rejection probability given survival. With
# independent hypotheses F is a sum of Bernoulli survivors, so the bound has
# the closed form 1 - prod_r (1 - s_r q)^(c_r) over rows of c_r hypotheses
# that each survive with probability s_r. Here every hypothesis is taken to
# survive with the observed fraction F/m.
survived = out.F / m
for q in (0.001, 0.01, 0.05):
    print(f"survivor-count FWER bound at q={q}: {fwer_bound_from_survivors(q, [survived], [m]):.4f}")

# fwer-bound computes the same quantities exactly for a scenario: the FWER of
# the rule with threshold alpha/F, q_max over the scenario's null rows, and
# the bound at q_max.
exact = exact_fwer_bound(builtin_scenario("config2", n=n), rule)
print(f"config2 at n={n}: exact FWER {exact.fwer:.4f}, q_max {exact.q_max:.6f}, "
      f"survivor bound {exact.survivor_bound:.4f}, mean F {exact.mean_F:.1f}")
