import zlib

import numpy as np
import pytest

from hcustom.errors import DuplicateDescriptorError, MissingDescriptorError
from hcustom.latent_codec import PixelVideo
from hcustom.prompt_fusion import (IMAGE_GRID, IMAGE_TOKENS, PromptSpec, Template,
                                   _template_tokens, adaptive_pool_image, build_template,
                                   fuse_t, prepare_prompt, tokenize_text, toy_encoder)

rng = np.random.default_rng(11)


def img(seed=0, size=16):
    r = np.random.default_rng(seed)
    return PixelVideo(r.random((1, size, size, 3), dtype=np.float32))


def fused(spec, encoder, include_images=True):
    """The fused rows of `spec`, their provenance and their counts."""
    prompt = prepare_prompt(spec, include_images, encoder.store.dtype)
    return fuse_t(prompt, encoder), prompt.provenance, prompt.counts


def image_rows(encoder, image):
    """The fused rows of one identity image and the cell count of each."""
    emb, _, counts = fused(PromptSpec("x", [("x", image)], Template.image_embedded), encoder)
    return emb, counts


def _tokens_of(provenance, counts, tag):
    """Prompt tokens behind the rows tagged `tag`: the sum of their counts."""
    return int(sum(c for p, c in zip(provenance, counts) if p == tag))


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
    _, provenance, _ = fused(spec, toy_encoder(0))
    assert provenance.count("sep") == 1  # only the template separator, not user text


def test_fuse_counts_single_subject():
    spec = PromptSpec("a b c d e f", [("man", img())], Template.image_appended)
    emb, provenance, counts = fused(spec, toy_encoder(0))
    # 6 text + 1 sep + 4 identity-phrase words + 576 image tokens
    assert len(provenance) == emb.shape[0] == len(counts)
    assert counts.sum() == 6 + 1 + 4 + IMAGE_TOKENS
    assert provenance.count("sep") == 1
    assert _tokens_of(provenance, counts, "image-1") == IMAGE_TOKENS


def test_fuse_counts_two_subjects():
    spec = PromptSpec("a red circle and a blue square",
                      [("circle", img(1)), ("square", img(2))],
                      Template.image_appended)
    _, provenance, counts = fused(spec, toy_encoder(0))
    assert provenance.count("sep") == 2
    assert _tokens_of(provenance, counts, "image-1") == IMAGE_TOKENS
    assert _tokens_of(provenance, counts, "image-2") == IMAGE_TOKENS


def test_fuse_no_subjects():
    _, provenance, counts = fused(PromptSpec("a cat sits", []), toy_encoder(0))
    assert list(counts) == [1, 1, 1]
    assert provenance.count("sep") == 0
    assert all(p == "text" for p in provenance)


def test_image_block_deterministic():
    enc = toy_encoder(3)
    a, ca = image_rows(enc, img(5))
    b, cb = image_rows(enc, img(5))
    np.testing.assert_array_equal(a.data, b.data)
    np.testing.assert_array_equal(ca, cb)
    assert a.shape == (len(ca), enc.d_text) and ca.sum() == IMAGE_TOKENS


def test_one_pixel_change_hits_containing_cell():
    enc = toy_encoder(3)
    base = img(5, size=48)
    bumped = PixelVideo(base.data.copy())
    bumped.data[0, 10, 33, 1] += 0.5
    delta = np.abs(adaptive_pool_image(base.data[0]) - adaptive_pool_image(bumped.data[0]))
    changed = np.nonzero(delta.sum(axis=2).reshape(-1))[0]
    cell = (10 * 24 // 48) * 24 + (33 * 24 // 48)
    assert cell in changed
    # the bumped cell's colour is new, so the encoder gains a row for it
    rows = {tuple(r) for r in image_rows(enc, base)[0].data}
    bumped_rows = {tuple(r) for r in image_rows(enc, bumped)[0].data}
    assert bumped_rows - rows


def test_encode_text_empty():
    assert fused(PromptSpec("", []), toy_encoder(0))[0].shape == (0, 128)


def test_swapping_subjects_permutes_blocks():
    a, b = img(1), img(2)
    enc = toy_encoder(0)
    e1, p1, c1 = fused(PromptSpec("x", [("p", a), ("q", b)]), enc)
    e2, p2, c2 = fused(PromptSpec("x", [("q", b), ("p", a)]), enc)
    i1 = [i for i, p in enumerate(p1) if p.startswith("image-1")]
    i2 = [i for i, p in enumerate(p2) if p.startswith("image-2")]
    np.testing.assert_array_equal(e1.data[i1], e2.data[i2])
    np.testing.assert_array_equal(c1[i1], c2[i2])
    t1 = [i for i, p in enumerate(p1) if p == "text"]
    t2 = [i for i, p in enumerate(p2) if p == "text"]
    # text tokens differ only by descriptor word order; counts match
    assert len(t1) == len(t2)


def test_any_image_size_yields_576_tokens():
    enc = toy_encoder(0)
    for size in (8, 24, 30, 64):
        rows, counts = image_rows(enc, img(0, size=size))
        assert rows.shape[0] == len(counts) and counts.sum() == IMAGE_TOKENS


def test_tokenizer_splits_punctuation():
    assert tokenize_text("A man, playing!") == ["A", "man", ",", "playing", "!"]


def flat_sprite(seed=0, size=48):
    """A square of one colour on a flat background, as the identity images are."""
    r = np.random.default_rng(seed)
    data = np.broadcast_to(r.random(3, dtype=np.float32), (1, size, size, 3)).copy()
    data[0, 8:24, 16:40] = r.random(3, dtype=np.float32)
    return PixelVideo(data)


def test_image_rows_are_the_distinct_pooled_colours_with_their_cell_counts():
    enc = toy_encoder(4)
    image = flat_sprite(3)
    rows, counts = image_rows(enc, image)
    pooled = adaptive_pool_image(image.data[0]).reshape(IMAGE_TOKENS, 3).astype(np.float32)
    full = pooled @ enc.store["encoder.image.w"].data + enc.store["encoder.image.b"].data
    # every cell's feature is one of the rows, found as often as its count says
    distinct, per_row = np.unique(full, axis=0, return_counts=True)
    assert len(rows.data) == len(distinct) < IMAGE_TOKENS
    order = [int(np.argmin(np.abs(distinct - r).sum(axis=1))) for r in rows.data]
    np.testing.assert_allclose(rows.data, distinct[order], rtol=0, atol=1e-6)
    np.testing.assert_array_equal(counts, per_row[order])
    assert counts.sum() == IMAGE_GRID ** 2


@pytest.mark.parametrize("template", list(Template))
def test_fused_rows_keep_the_template_order(template):
    enc = toy_encoder(0)
    spec = PromptSpec("a red circle and a blue square",
                      [("circle", flat_sprite(1)), ("square", flat_sprite(2))], template)
    emb, provenance, counts = fused(spec, enc)
    # runs of one tag, in the order of the template's tokens
    runs = [p for i, p in enumerate(provenance) if i == 0 or p != provenance[i - 1]]
    expected = [tag if tag != "image" else f"image-{value}"
                for tag, value in _template_tokens(spec)]
    expected = [p for i, p in enumerate(expected) if i == 0 or p != expected[i - 1]]
    assert runs == expected
    assert counts.sum() == len(_template_tokens(spec)) + 2 * (IMAGE_TOKENS - 1)
    text_only, text_provenance, text_counts = fused(spec, enc, include_images=False)
    keep = [i for i, p in enumerate(provenance) if not p.startswith("image-")]
    np.testing.assert_array_equal(text_only.data, emb.data[keep])
    assert text_provenance == [provenance[i] for i in keep]
    assert (text_counts == 1).all()


def _crc32_twin(image: PixelVideo, slot: int, value: float, free: int) -> PixelVideo:
    """A copy of `image` with `value` at float slot `slot` and the float at
    `free` chosen so that both images share a CRC32, or None if that float
    would not be a pixel value.  CRC32 is affine over GF(2), so the 32 bits
    of the free slot are the solution of a 32x32 linear system."""
    data = image.data.copy()
    flat = data.reshape(-1)
    words = flat.view(np.uint32)
    target = zlib.crc32(image.data.tobytes())
    flat[slot] = value

    def crc(word):
        words[free] = word
        return zlib.crc32(data.tobytes())

    offset = crc(0)
    pivots = {}                       # highest bit -> (crc column, free-slot bits)
    for i in range(32):
        col, comb = crc(1 << i) ^ offset, 1 << i
        for bit in reversed(range(32)):
            if not col >> bit & 1:
                continue
            if bit not in pivots:
                pivots[bit] = (col, comb)
                break
            col, comb = col ^ pivots[bit][0], comb ^ pivots[bit][1]
    rhs, word = target ^ offset, 0
    for bit in reversed(range(32)):
        if rhs >> bit & 1:
            rhs, word = rhs ^ pivots[bit][0], word ^ pivots[bit][1]
    assert rhs == 0
    words[free] = word
    assert zlib.crc32(data.tobytes()) == target
    return PixelVideo(data) if 0.0 <= flat[free] <= 1.0 else None


def test_pool_cache_tells_apart_images_with_one_crc32():
    # a forged CRC32 twin that differs in two pixels' values must still get
    # its own distinct colours, not those of the image prepared before it
    image = flat_sprite(5, size=64)
    twin = None
    for k in range(1, 200):
        twin = _crc32_twin(image, slot=3 * (64 * 30 + 2), value=k / 200, free=3 * 64 * 50)
        if twin is not None:
            break
    assert twin is not None
    assert not np.array_equal(twin.data, image.data)
    enc = toy_encoder(0)
    image_rows(enc, image)
    rows, counts = image_rows(enc, twin)
    want_rows, want_counts = image_rows(toy_encoder(0), twin)
    np.testing.assert_array_equal(counts, want_counts)
    np.testing.assert_array_equal(rows.data, want_rows.data)
