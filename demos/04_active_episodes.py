"""Closed-loop active classification: next-best-view against random moves.

Both policies share seeds (same true class, pose, start view and observation
noise), so the comparison is paired episode by episode.
"""

from viewrank import ambiguity, classify, policy, so3, synthworld
from viewrank.codebook import build_codebook

a, b = synthworld.make_ambiguous_pair(seed=0)
grid = so3.build_view_grid(1024, 12)
codebooks = [build_codebook(a, grid), build_codebook(b, grid)]
coarse = so3.build_view_grid(256, 1)
tables = {
    "A": ambiguity.rank_object(a, [b], [codebooks[1]], coarse, 16),
    "B": ambiguity.rank_object(b, [a], [codebooks[0]], coarse, 16),
}

sigma = classify.default_noise_sigma(a, 0.05)
splits = [ambiguity.split_by_threshold(tables[o.class_id], 0.5) for o in (a, b)]
clf = classify.train([a, b], splits, noise_sigma=sigma, seed=0)
reachable = policy.build_trajectory_reachable(policy.TrajectoryGrid.evenly_spaced(5, 32))

results = {}
for pol in ("next_best", "random"):
    results[pol] = policy.run_experiment(
        n_episodes=100, policy=pol, objects=[a, b], codebooks=codebooks,
        tables=tables, classifier=clf, reachable=reachable,
        ambiguity_threshold=0.4, max_moves=3, noise_sigma=sigma, seed=0,
    )

print("success fraction by move budget (100 paired episodes):")
print(f"{'budget':>7} {'next_best':>10} {'random':>7}")
for k in range(4):
    nb = results["next_best"].success_by_budget[k]
    rd = results["random"].success_by_budget[k]
    print(f"{k:>7} {nb:>10.3f} {rd:>7.3f}")

reasons = {}
for e in results["next_best"].episodes:
    reasons[e.terminated_reason] = reasons.get(e.terminated_reason, 0) + 1
print(f"next-best termination reasons: {reasons}")
