"""Build a twin-object world and show what makes it ambiguous.

The two objects share every blob except those inside a spherical patch, so
any view that hides the patch renders bitwise-identically for both.
"""

import numpy as np

from viewrank import so3, synthworld

a, b = synthworld.make_ambiguous_pair(seed=0)
diff = synthworld.differing_blobs(a, b)

print(f"objects: {a.class_id}/{b.class_id} in group {a.group_id}")
print(f"blobs: {a.n_blobs} total, {int(diff.sum())} differ inside the patch")
print(f"patch: center {a.meta['patch_center']}, radius {a.meta['patch_radius']:.3f} rad")

center = np.asarray(a.meta["patch_center"])
for label, direction in [("patch head-on", center), ("patch hidden", -center)]:
    r = so3.look_at(direction)
    za = synthworld.render_embedding(a, r)
    zb = synthworld.render_embedding(b, r)
    identical = np.array_equal(za, zb)
    print(f"{label:>14}: embeddings identical = {identical}, "
          f"|za - zb| = {np.linalg.norm(za - zb):.6f}")

dirs = so3.fibonacci_directions(1000)
hidden = np.mean([not synthworld.patch_visible((a, b), so3.look_at(d)) for d in dirs])
print(f"fraction of viewing directions hiding the patch: {hidden:.3f}")
