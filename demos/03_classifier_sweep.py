"""Sweep the training ambiguity threshold against the evaluation cap.

Training only on low-ambiguity views buys accuracy on the views that matter;
training on everything lets perfectly ambiguous views poison the centroids.
"""

from viewrank import ambiguity, classify, so3, synthworld
from viewrank.codebook import build_codebook

a, b = synthworld.make_ambiguous_pair(seed=0)
grid = so3.build_view_grid(1024, 12)
codebooks = {"A": build_codebook(a, grid), "B": build_codebook(b, grid)}
coarse = so3.build_view_grid(256, 1)
tables = [
    ambiguity.rank_object(a, [b], [codebooks["B"]], coarse, 16),
    ambiguity.rank_object(b, [a], [codebooks["A"]], coarse, 16),
]

sigma = classify.default_noise_sigma(a, 0.5)
result = classify.threshold_sweep(
    [a, b], tables,
    thresholds=[0.25, 0.5, 0.75, 1.0],
    caps=[0.25, 0.5, 1.0],
    trials=10,
    eval_samples=100,
    noise_sigma=sigma,
    seed=0,
)

print(f"noise sigma {sigma:.3f} (noise norm ~ 50% of signal norm)")
print(f"{'train thr':>10} {'eval cap':>9} {'accuracy':>9} {'status':>12}")
for row in result.rows:
    acc = f"{row.accuracy:.3f}" if row.status == "ok" else "-"
    print(f"{row.train_threshold:>10.2f} {row.eval_ambiguity_cap:>9.2f} {acc:>9} {row.status:>12}")
