"""Walk through the causal video autoencoder.

Encodes a sprite clip, checks the 4x temporal compression law, demonstrates
bit-exact causality, and round-trips tokenization.
"""

import numpy as np

from hcustom import CodecConfig, LatentCodec, PixelVideo, tokenize, untokenize
from hcustom.latent_codec import latent_frame_count, train_codec
from hcustom.rope3d import video_positions
from hcustom.synth_data import SceneParams, SpriteIdentity, generate_sample

scene = SceneParams(frames=33, size=64)
sample = generate_sample(SpriteIdentity(shape="circle", hue_bin=2), scene, seed=0)
codec = LatentCodec(CodecConfig())

z = codec.encode(sample.video)
print(f"pixel video {sample.video.data.shape} -> latent {z.data.shape}")
print(f"frame law: floor(33/4)+1 = {latent_frame_count(33)} == {z.frames}")

# causality: latent frame k ignores pixel frames after index 4k
edited = sample.video.data.copy()
edited[9:] = 0.0
z_edited = codec.encode(PixelVideo(edited))
same = [bool((z.data[k] == z_edited.data[k]).all()) for k in range(z.frames)]
print("latent frames unchanged after zeroing pixel frames 9..32:", same)

tokens = tokenize(z)
positions = video_positions(z.frames, z.width, z.height)  # token i sits at positions[i]
print(f"tokens {tokens.shape}, first position {tuple(map(int, positions[0]))}, "
      f"frame-1 starts at {tuple(map(int, positions[z.height * z.width]))}")
back = untokenize(tokens, z.frames, z.height, z.width)
print("tokenize/untokenize exact:", bool((back.data == z.data).all()))

# a short overfit shrinks reconstruction error
videos = [sample.video]
losses = train_codec(codec, videos, steps=60, batch_size=1, seed=0)
recon = codec.decode(codec.encode(sample.video))
print(f"after 60 steps: loss {losses[0]:.4f} -> {losses[-1]:.4f}, "
      f"recon MAE {np.abs(recon.data - sample.video.data).mean():.4f}")
