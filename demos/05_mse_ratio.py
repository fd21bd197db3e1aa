# Exact MSE-ratio of the shrinkage product estimator along presets.
#
# Each preset pairs a drifting parameter sequence with filtration constants
# (c, delta). The ratio MSE(shrunk)/MSE(plain) is computed by quadrature at
# several sample sizes; in the full-filtration regime it approaches K^2, and
# in the no-filtration regime it approaches 1. Writes an SVG chart alongside.

from twostage import MSE_RATIO_PRESETS, ParamSequence, mse_ratio_exact
from twostage.svgplot import Series, line_plot

n_grid = [10**3, 10**4, 10**5, 10**6]

series = []
for name in ("k-inv-sqrt3", "k-4over3", "vanishing-filter"):
    preset = MSE_RATIO_PRESETS[name]
    seq = ParamSequence(preset.gamma, preset.beta)
    points = mse_ratio_exact(seq, preset.c, preset.delta, n_grid)
    print(f"{name}: gamma={preset.gamma}, c={preset.c:g}, delta={preset.delta:g}  ({preset.note})")
    for p in points:
        print(f"  n={p.n:>8d}  ratio={p.ratio:.6f}  K_n={p.k_at_n:.4f}  filtered={p.filter_freq:.6f}")
    series.append(Series(name, [p.n for p in points], [p.ratio for p in points]))

line_plot(
    "mse-ratio-demo.svg",
    series,
    x_label="n",
    y_label="MSE(shrunk) / MSE(plain)",
    title="shrinkage product estimator MSE-ratio",
    log_x=True,
)
print("\nwrote mse-ratio-demo.svg")
