"""The two image-text templates and marker expansion."""

from hcustom import PromptSpec, Template, build_template, fuse_t, toy_encoder
from hcustom import autograd as ag
from hcustom.synth_data import SpriteIdentity, render_identity_frame
from hcustom.latent_codec import PixelVideo

img = PixelVideo(render_identity_frame(SpriteIdentity(shape="circle", hue_bin=0), 64)[None])

embedded = PromptSpec("A man is playing guitar", [("man", img)], Template.image_embedded)
appended = PromptSpec("A man is playing guitar", [("man", img)], Template.image_appended)
print("embedded:", build_template(embedded))
print("appended:", build_template(appended))

encoder = toy_encoder(seed=0)
with ag.no_grad():
    embeddings, provenance = fuse_t(appended, encoder)
counts = {}
for tag in provenance:
    counts[tag] = counts.get(tag, 0) + 1
print("fused token counts:", counts)
print("total length:", len(provenance), "embedding width:", embeddings.shape[1])

two = PromptSpec("a circle and a square",
                 [("circle", img), ("square", img)], Template.image_appended)
with ag.no_grad():
    _, provenance2 = fuse_t(two, encoder)
print("two subjects ->", provenance2.count("sep"), "separators,",
      provenance2.count("image-1") + provenance2.count("image-2"), "image tokens")
