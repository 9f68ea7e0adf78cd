#!/usr/bin/env python3
"""The frozen toy denoiser and its self-reinforcing dynamics.

Token embeddings come from a seeded hash of the word text; queries and
keys from seeded projections. Each denoise step pulls every latent pixel
toward the value vector of whatever token it attends to, so whatever
layout exists early in the trajectory gets locked in: exactly the
behavior that makes guiding only the early steps worthwhile.
"""

import numpy as np

from loco.backbone import BackboneConfig
from loco.guidance import GuidanceConfig, guided_sample
from loco.layout import parse_layout

layout = parse_layout("""{
  "prompt": "cat beside dog",
  "objects": [
    {"phrase": "cat", "box": [0.0625, 0.125, 0.4375, 0.875]},
    {"phrase": "dog", "box": [0.5625, 0.125, 0.9375, 0.875]}
  ]
}""")

cfg = BackboneConfig()
unguided = GuidanceConfig(guided_steps=0)
run = guided_sample(layout, unguided, cfg, seeds=0)

print("tokens:", ("[SoT]",) + run.tokens.words + ("[EoT]",))

# Watch the per-pixel attention sharpen as the latent grows into the key
# space, and the winner map freeze once basins are established.
cut = int(0.4 * cfg.total_steps)
reference = run.steps[cut].attention.argmax(axis=1)
for index in (0, 5, 10, 20, 35, 50):
    att = run.steps[index].attention
    sharp = att.max(axis=1).mean()
    stable = np.mean(att.argmax(axis=1) == reference)
    print(f"step {index:2d}: mean max-attention {sharp:.3f}   "
          f"agreement with step {cut}: {stable:.2%}")
rms = np.sqrt(np.mean(run.final_z ** 2))
print(f"latent rms: {cfg.init_scale:.3f} at the start, {rms:.3f} at the end")

# Determinism: identical seeds replay the trajectory bit for bit.
replay = guided_sample(layout, unguided, cfg, seeds=0)
assert np.array_equal(replay.final_z, run.final_z)
print("replay with the same seed: bit-identical")

# The final winner map of an unguided run is a random speckle; no object
# forms a coherent region without guidance.
labels = run.final_attention.argmax(axis=1).reshape(16, 16)
print("final winner map (token index per pixel):")
for row in labels:
    print("  " + "".join(str(v) for v in row))
