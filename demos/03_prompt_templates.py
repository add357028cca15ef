"""The two image-text templates and marker expansion."""

from hcustom import PromptSpec, Template, build_template, fuse_t, prepare_prompt, toy_encoder
from hcustom import autograd as ag
from hcustom.synth_data import SpriteIdentity, render_identity_frame
from hcustom.latent_codec import PixelVideo

img = PixelVideo(render_identity_frame(SpriteIdentity(shape="circle", hue_bin=0), 64)[None])

embedded = PromptSpec("A man is playing guitar", [("man", img)], Template.image_embedded)
appended = PromptSpec("A man is playing guitar", [("man", img)], Template.image_appended)
print("embedded:", build_template(embedded))
print("appended:", build_template(appended))

encoder = toy_encoder(seed=0)
# resolved once per sample: token ids, separators and each image's pooled colours
prompt = prepare_prompt(appended)
provenance, counts = prompt.provenance, prompt.counts
with ag.no_grad():
    embeddings = fuse_t(prompt, encoder)   # the taped part, run at every velocity
rows, tokens = {}, {}
for tag, count in zip(provenance, counts):
    rows[tag] = rows.get(tag, 0) + 1
    tokens[tag] = tokens.get(tag, 0) + int(count)
# each image block holds its distinct pooled colours once, counted by the
# grid cells they fill: the rows cross-attention scores, the tokens it weighs
print("fused rows per tag:", rows)
print("prompt tokens per tag (sum of counts):", tokens)
print("total:", len(provenance), "rows for", int(counts.sum()), "tokens,",
      "embedding width:", embeddings.shape[1])

two = PromptSpec("a circle and a square",
                 [("circle", img), ("square", img)], Template.image_appended)
prompt2 = prepare_prompt(two)
provenance2, counts2 = prompt2.provenance, prompt2.counts
image_tokens = sum(int(c) for p, c in zip(provenance2, counts2) if p.startswith("image-"))
print("two subjects ->", provenance2.count("sep"), "separators,",
      image_tokens, "image tokens")
