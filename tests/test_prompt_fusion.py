import numpy as np
import pytest

from hcustom.errors import DuplicateDescriptorError, MissingDescriptorError
from hcustom.latent_codec import PixelVideo
from hcustom.prompt_fusion import (IMAGE_TOKENS, PromptSpec, Template,
                                   build_template, fuse_t, tokenize_text,
                                   toy_encoder)

rng = np.random.default_rng(11)


def img(seed=0, size=16):
    r = np.random.default_rng(seed)
    return PixelVideo(r.random((1, size, size, 3), dtype=np.float32))


def test_embedded_template_example():
    spec = PromptSpec("A man is playing guitar", [("man", img())],
                      Template.image_embedded)
    assert build_template(spec) == "A <image> is playing guitar"


def test_appended_template_example():
    spec = PromptSpec("A man is playing guitar", [("man", img())],
                      Template.image_appended)
    assert build_template(spec) == "A man is playing guitar <SEP> The man looks like <image>"


def test_no_subjects_identity():
    for template in Template:
        assert build_template(PromptSpec("A cat sits", [], template)) == "A cat sits"


def test_missing_descriptor_embedded():
    with pytest.raises(MissingDescriptorError):
        build_template(PromptSpec("A man is playing", [("woman", img())],
                                  Template.image_embedded))


def test_duplicate_descriptor_embedded():
    with pytest.raises(DuplicateDescriptorError):
        build_template(PromptSpec("the man and the man", [("man", img())],
                                  Template.image_embedded))


def test_sep_forgery_is_escaped():
    spec = PromptSpec("hello <SEP> world", [("world", img())], Template.image_appended)
    _, provenance = fuse_t(spec, toy_encoder(0))
    assert provenance.count("sep") == 1  # only the template separator, not user text


def test_fuse_counts_single_subject():
    spec = PromptSpec("a b c d e f", [("man", img())], Template.image_appended)
    emb, provenance = fuse_t(spec, toy_encoder(0))
    # 6 text + 1 sep + 4 identity-phrase words + 576 image tokens
    assert len(provenance) == emb.shape[0] == 6 + 1 + 4 + IMAGE_TOKENS
    assert provenance.count("sep") == 1
    assert provenance.count("image-1") == IMAGE_TOKENS


def test_fuse_counts_two_subjects():
    spec = PromptSpec("a red circle and a blue square",
                      [("circle", img(1)), ("square", img(2))],
                      Template.image_appended)
    _, provenance = fuse_t(spec, toy_encoder(0))
    assert provenance.count("sep") == 2
    assert provenance.count("image-1") + provenance.count("image-2") == 2 * IMAGE_TOKENS


def test_fuse_no_subjects():
    _, provenance = fuse_t(PromptSpec("a cat sits", []), toy_encoder(0))
    assert provenance.count("sep") == 0
    assert all(p == "text" for p in provenance)


def test_image_block_deterministic():
    enc = toy_encoder(3)
    a = enc.encode_image_t(img(5)).data
    b = enc.encode_image_t(img(5)).data
    np.testing.assert_array_equal(a, b)
    assert a.shape == (IMAGE_TOKENS, enc.d_text)


def test_one_pixel_change_hits_containing_cell():
    enc = toy_encoder(3)
    base = img(5, size=48)
    bumped = PixelVideo(base.data.copy())
    bumped.data[0, 10, 33, 1] += 0.5
    delta = np.abs(enc.encode_image_t(base).data - enc.encode_image_t(bumped).data)
    changed = np.nonzero(delta.sum(axis=1))[0]
    cell = (10 * 24 // 48) * 24 + (33 * 24 // 48)
    assert cell in changed


def test_encode_text_empty():
    assert toy_encoder(0).encode_text_t([]).shape == (0, 128)


def test_swapping_subjects_permutes_blocks():
    a, b = img(1), img(2)
    enc = toy_encoder(0)
    e1, p1 = fuse_t(PromptSpec("x", [("p", a), ("q", b)]), enc)
    e2, p2 = fuse_t(PromptSpec("x", [("q", b), ("p", a)]), enc)
    i1 = [i for i, p in enumerate(p1) if p.startswith("image-1")]
    i2 = [i for i, p in enumerate(p2) if p.startswith("image-2")]
    np.testing.assert_array_equal(e1.data[i1], e2.data[i2])
    t1 = [i for i, p in enumerate(p1) if p == "text"]
    t2 = [i for i, p in enumerate(p2) if p == "text"]
    # text tokens differ only by descriptor word order; counts match
    assert len(t1) == len(t2)


def test_any_image_size_yields_576_tokens():
    enc = toy_encoder(0)
    for size in (8, 24, 30, 64):
        assert enc.encode_image_t(img(0, size=size)).shape[0] == IMAGE_TOKENS


def test_tokenizer_splits_punctuation():
    assert tokenize_text("A man, playing!") == ["A", "man", ",", "playing", "!"]
