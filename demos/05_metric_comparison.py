"""Compare baseline similarity metrics against the primary ranking.

The harness reports Spearman/Pearson correlations and a noise-robustness
sweep; whether the baselines agree is an observation, not an assertion.
"""

from viewrank import ambiguity, classify, so3, synthworld
from viewrank.baselines import metric_comparison, noise_robustness_sweep
from viewrank.codebook import build_codebook

a, b = synthworld.make_ambiguous_pair(seed=0)
grid = so3.build_view_grid(1024, 12)
cb_b = build_codebook(b, grid)
coarse = so3.build_view_grid(256, 1)
table = ambiguity.rank_object(a, [b], [cb_b], coarse, 16)

report = metric_comparison(table, a, {"B": b})
print("rank correlation against the primary similarity:")
for name in report.metric_names:
    print(f"  {name:>11}: spearman {report.spearman[name]:+.3f}  "
          f"pearson {report.pearson[name]:+.3f}")

sigmas = [classify.default_noise_sigma(a, f) for f in (0.0, 0.5, 1.0, 2.0)]
print("noise robustness of the pair similarities (spearman vs clean ranking):")
for sigma, corr in noise_robustness_sweep(table, a, {"B": b}, sigmas, seed=0):
    print(f"  sigma {sigma:7.3f}: {corr:+.3f}")
