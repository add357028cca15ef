"""Evaluation metrics with the ground-truth-parameter toy embeddings."""

import numpy as np

from hcustom.eval_metrics import (EvalRef, evaluate, dynamic_degree,
                                  id_consistency, temporal_consistency)
from hcustom.latent_codec import PixelVideo
from hcustom.synth_data import (SceneParams, SpriteIdentity, generate_sample,
                                render_identity_frame)

ident = SpriteIdentity(shape="star", hue_bin=9, texture="flat", size=24)
other = SpriteIdentity(shape="circle", hue_bin=3, texture="flat", size=24)

# a real clip of the identity scores near-perfectly against its own reference
clip = generate_sample(ident, SceneParams(frames=9, size=64, walk_step=1.5), seed=0)
ref_same = EvalRef(identity_image=clip.identity_images[0], prompt=clip.caption)
ref_other = EvalRef(identity_image=PixelVideo(render_identity_frame(other, 64)[None]),
                    prompt=clip.caption)
same = evaluate([clip.video], [ref_same])
wrong = evaluate([clip.video], [ref_other])
print("identity match:   ", same.render_table("same-identity"))
print("identity mismatch:", f"Face-Sim {wrong.face_sim:.3f} (vs {same.face_sim:.3f})")

# aggregation formulas on hand-built embeddings
e0 = np.array([1.0, 0.0])
e60 = np.array([0.5, np.sqrt(3) / 2])
print("id_consistency([1,cos60,0]):",
      id_consistency(e0, [e0, e60, np.array([0.0, 1.0])]))
print("temporal_consistency identical frames:", temporal_consistency([e0, e0, e0]))

static = np.repeat(clip.video.data[:1], 4, axis=0)
print("dynamic degree static:", dynamic_degree(static),
      "| moving clip:", round(dynamic_degree(clip.video.data), 4))
