"""Rank the viewpoints of one twin by how well the other can imitate them.

Orientations that hide the differing patch are perfectly imitable (raw
similarity 1, ambiguity at the top of the ranking); the patch head-on view
sits at the bottom.
"""

from pathlib import Path

from viewrank import ambiguity, so3, synthworld
from viewrank.codebook import build_codebook

a, b = synthworld.make_ambiguous_pair(seed=0)
grid = so3.build_view_grid(1024, 12)
cb_b = build_codebook(b, grid)
coarse = so3.build_view_grid(256, 1)

table = ambiguity.rank_object(a, [b], [cb_b], coarse, descent_steps=16)

print(f"ranked {len(table)} orientations of {table.object_class} against {a.group_id}")
print("most ambiguous (twin imitates perfectly):")
for p, amb in list(zip(table.pairs, table.ambiguity))[:3]:
    visible = synthworld.patch_visible((a, b), p.r_a)
    print(f"  similarity {p.similarity:.6f}  ambiguity {amb:.3f}  patch visible {visible}")
print("least ambiguous (patch in full view):")
for p, amb in list(zip(table.pairs, table.ambiguity))[-3:]:
    visible = synthworld.patch_visible((a, b), p.r_a)
    print(f"  similarity {p.similarity:.6f}  ambiguity {amb:.3f}  patch visible {visible}")

out = Path("demo-out")
out.mkdir(exist_ok=True)
table.save(out / "ambiguity_A.json")
ambiguity.export_sorted_pairs(table, out / "sorted_pairs_A.csv")
print(f"wrote {out}/ambiguity_A.json and {out}/sorted_pairs_A.csv")
