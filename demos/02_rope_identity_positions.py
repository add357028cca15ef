"""Show how identity tokens get negative-time, spatially shifted positions.

The relative-position property of rotary embeddings is what lets the
backbone treat the identity image as "the frame before frame 0" while the
spatial shift keeps its tokens from colliding with any video token.
"""

import numpy as np

from hcustom import RopeConfig, identity_positions, video_positions
from hcustom import autograd as ag
from hcustom.rope3d import apply_rotation, rotation_tables

cfg = RopeConfig(head_dim=32)


def rotate(v, pos):
    """One head-dim vector at pos = (t, x, y), as the backbone rotates q and k."""
    cos, sin = rotation_tables(np.reshape(pos, (1, 3)), cfg)
    return apply_rotation(ag.Tensor(v.reshape(1, 1, -1)), cos, sin, cfg).data[0, 0]


ident = identity_positions(1, 4, 4)
video = video_positions(3, 4, 4)
print("subject-1 cell (0,0):", tuple(map(int, ident[0])), " (time -1, shifted by +w,+h)")
print("subject-2 cell (3,3):", tuple(map(int, identity_positions(2, 4, 4)[-1])))
print("video frame 0 cell (0,0):", tuple(map(int, video[0])))

overlap = {tuple(p) for p in ident} & {tuple(p) for p in video}
print("identity/video position collisions:", len(overlap))

rng = np.random.default_rng(0)
q, k = rng.normal(size=32), rng.normal(size=32)
p1, p2 = np.array([2, 1, 3]), np.array([0, 2, 2])
shift = np.array([5, -1, 4])
a = rotate(q, p1) @ rotate(k, p2)
b = rotate(q, p1 + shift) @ rotate(k, p2 + shift)
print(f"attention logit depends only on relative position: {a:.6f} vs {b:.6f}")

v = rng.normal(size=32)
print("norm preserved:", np.linalg.norm(v), "->", np.linalg.norm(rotate(v, (7, -3, 11))))
