"""Desk-scale multi-modal conditioned video generation.

Identity images enter the diffusion transformer as extra latent tokens at
negative rotary time indices with a spatial shift; audio is injected by
per-frame spatial cross-attention; a condition video is added frame-by-frame
after a learned alignment; training uses flow matching with logit-normal
timesteps.  Everything runs on numpy with a small taped autodiff core.
"""

from .audio_net import AlignedAudio, AudioInjectConfig, AudioTrack, align_audio
from .backbone import Backbone, BackboneConfig
from .errors import HCustomError
from .flow_match import NoiseSchedule, SamplerConfig, interpolate, sample_flow, train_flow
from .latent_codec import (CodecConfig, LatentCodec, LatentVideo, PixelVideo,
                           latent_frame_count, tokenize, untokenize)
from .model import (CustomVideoModel, LatentStats, ModelConfig,
                    load_checkpoint, save_checkpoint)
from .prompt_fusion import (PromptSpec, Template, build_template, fuse_t, prepare_prompt,
                            toy_encoder)
from .rope3d import RopeConfig, identity_positions, sequence_positions, video_positions
from .synth_data import (AnnotationRecord, BBox, SceneParams, SpriteIdentity,
                         TrainSample, generate_dataset, generate_sample, load_dataset)
from .video_inject import AlignmentNet, ConditionVideo, encode_condition

__version__ = "0.1.0"
