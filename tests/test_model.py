import numpy as np
import pytest

from melt.corpus import Action, MaskPlan, RawMessage, SequenceChunk
from melt.model import MeltConfig, MeltModel, embed_batch
from melt.pretrain import _input_rows
from melt.tensor import Tensor, backward, gather_rows, reshape


def chunk_of(n_real, length=4, user="u"):
    slots = [RawMessage(user, f"{user}m{i}", i, f"msg {i}") for i in range(n_real)]
    return SequenceChunk(user, tuple(slots) + (None,) * (length - n_real))


def vectors_for(chunk, d, seed=0):
    rng = np.random.default_rng(seed)
    return {s.message_id: rng.uniform(-1, 1, d).astype(np.float32)
            for s in chunk.slots if s is not None}


def embed(model, chunks, plans, vectors):
    """embed_batch with the rows pre-training builds, or every real slot's vector."""
    if plans is not None:
        rows = _input_rows(model, chunks, plans, vectors)
    else:
        rows = Tensor(np.stack([vectors[s.message_id] for c in chunks for s in c.slots
                                if s is not None]))
    return embed_batch(model, chunks, plans, rows)


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            MeltConfig(d_model=10, n_heads=3)

    def test_positive_extents(self):
        with pytest.raises(ValueError):
            MeltConfig(n_layers=0)

    def test_round_trips_through_dict(self):
        cfg = MeltConfig(n_layers=2, d_model=16, ff_dim=32, n_heads=4)
        assert MeltConfig(**cfg.to_dict()) == cfg


class TestEmbed:
    def test_all_keep_is_means_plus_positions(self, tiny_config):
        model = MeltModel(tiny_config, seed=0)
        chunk = chunk_of(4)
        vectors = vectors_for(chunk, 8)
        x, attn = embed(model, [chunk], None, vectors)
        expected = np.stack([vectors[s.message_id] for s in chunk.slots])
        expected = expected + model.pos_embedding.data
        np.testing.assert_allclose(x.data[0], expected, rtol=1e-6)
        assert attn.all()

    def test_masked_slot_ignores_message_content(self, tiny_config):
        # two vector maps differing only at the masked message
        model = MeltModel(tiny_config, seed=0)
        chunk = chunk_of(4)
        plan = MaskPlan((Action.MASK_TOKEN, Action.KEEP, Action.KEEP, Action.KEEP),
                        {0: np.zeros(8, dtype=np.float32)}, {})
        va = vectors_for(chunk, 8, seed=1)
        vb = {k: v.copy() for k, v in va.items()}
        vb["um0"] = va["um0"] + 5.0
        xa, _ = embed(model, [chunk], [plan], va)
        xb, _ = embed(model, [chunk], [plan], vb)
        np.testing.assert_array_equal(xa.data, xb.data)

    def test_pad_slot_uses_pad_vector(self, tiny_config):
        model = MeltModel(tiny_config, seed=0)
        chunk = chunk_of(2)
        x, attn = embed(model, [chunk], None, vectors_for(chunk, 8))
        want = model.pad_vector.data + model.pos_embedding.data[3]
        np.testing.assert_allclose(x.data[0, 3], want, rtol=1e-6)
        assert list(attn[0]) == [True, True, False, False]

    def test_random_replace_uses_recorded_substitute(self, tiny_config):
        model = MeltModel(tiny_config, seed=0)
        chunk = chunk_of(4)
        vectors = vectors_for(chunk, 8)
        sub = np.full(8, 3.0, dtype=np.float32)
        plan = MaskPlan((Action.RANDOM_REPLACE, Action.KEEP, Action.KEEP, Action.KEEP),
                        {0: vectors["um0"]}, {0: ("other", sub)})
        x, _ = embed(model, [chunk], [plan], vectors)
        np.testing.assert_allclose(x.data[0, 0], sub + model.pos_embedding.data[0],
                                   rtol=1e-6)

    def test_plan_chunk_misalignment_rejected(self, tiny_config):
        model = MeltModel(tiny_config, seed=0)
        chunk = chunk_of(4)
        short_plan = MaskPlan((Action.KEEP,) * 3)
        rows = Tensor(np.zeros((4, 8), dtype=np.float32))
        with pytest.raises(ValueError, match="slots"):
            embed_batch(model, [chunk], [short_plan], rows)

    def test_every_slot_kind_matches_the_indicator_formula(self, tiny_config):
        # base rows + mask indicator * mask vector + pad indicator * pad vector + positions
        model = MeltModel(tiny_config, seed=0)
        chunks = [chunk_of(4, user="a"), chunk_of(3, user="b")]
        vectors = {**vectors_for(chunks[0], 8, seed=1), **vectors_for(chunks[1], 8, seed=2)}
        sub = np.full(8, 3.0, dtype=np.float32)
        plans = [MaskPlan((Action.MASK_TOKEN, Action.RANDOM_REPLACE, Action.UNCHANGED_PREDICT,
                           Action.KEEP), {}, {1: ("bm0", sub)}),
                 MaskPlan((Action.KEEP, Action.MASK_TOKEN, Action.KEEP, Action.KEEP))]
        base = np.zeros((2, 4, 8), dtype=np.float32)
        base[0, 1], base[0, 2], base[0, 3] = sub, vectors["am2"], vectors["am3"]
        base[1, 0], base[1, 2] = vectors["bm0"], vectors["bm2"]
        mask_ind = np.zeros((2, 4, 1), dtype=np.float32)
        mask_ind[0, 0] = mask_ind[1, 1] = 1.0
        pad_ind = np.zeros((2, 4, 1), dtype=np.float32)
        pad_ind[1, 3] = 1.0
        weights = Tensor(np.random.default_rng(3).uniform(-1, 1, (2, 4, 8)).astype(np.float32))

        def formula():
            x = Tensor(base) + Tensor(mask_ind) * reshape(model.mask_vector, (1, 1, 8))
            x = x + Tensor(pad_ind) * reshape(model.pad_vector, (1, 1, 8))
            return x + reshape(gather_rows(model.pos_embedding, np.arange(4)), (1, 4, 8))

        runs = []
        for build in (lambda: embed(model, chunks, plans, vectors)[0], formula):
            for _, p in model.named_parameters():
                p.grad = None
            x = build()
            backward((x * weights).sum())
            runs.append([x.data.tobytes()] + [np.asarray(p.grad).tobytes() for p in
                         (model.mask_vector, model.pad_vector, model.pos_embedding)])
        assert runs[0] == runs[1]
        _, attn = embed(model, chunks, plans, vectors)
        assert attn.tolist() == [[True] * 4, [True, True, True, False]]

    def test_positions_can_be_disabled(self):
        cfg = MeltConfig(n_layers=1, d_model=8, ff_dim=16, n_heads=2, dropout=0.0,
                         max_seq=4, use_positions=False)
        model = MeltModel(cfg, seed=0)
        chunk = chunk_of(4)
        vectors = vectors_for(chunk, 8)
        x, _ = embed(model, [chunk], None, vectors)
        np.testing.assert_allclose(
            x.data[0], np.stack([vectors[s.message_id] for s in chunk.slots]), rtol=1e-6)


class TestForward:
    def test_output_shape(self, tiny_config):
        model = MeltModel(tiny_config, seed=1)
        out = model.forward(Tensor(np.zeros((3, 4, 8), dtype=np.float32)),
                            np.ones((3, 4), dtype=bool))
        assert out.shape == (3, 4, 8)

    def test_pad_content_cannot_leak_into_real_slots(self, tiny_config):
        model = MeltModel(tiny_config, seed=2)
        rng = np.random.default_rng(0)
        base = rng.uniform(-1, 1, (1, 4, 8)).astype(np.float32)
        attn = np.array([[True, True, True, False]])
        out_a = model.forward(Tensor(base.copy()), attn).data
        poked = base.copy()
        poked[0, 3] += 17.0
        out_b = model.forward(Tensor(poked), attn).data
        np.testing.assert_array_equal(out_a[0, :3], out_b[0, :3])

    def test_hand_computed_single_layer(self):
        cfg = MeltConfig(n_layers=1, d_model=2, ff_dim=2, n_heads=1, dropout=0.0,
                         max_seq=2)
        model = MeltModel(cfg, seed=0)
        layer = model.layers[0]
        eye = np.eye(2, dtype=np.float32)
        for w in (layer.wq, layer.wk, layer.wv, layer.wo):
            w.data = eye.copy()
        for b in (layer.bq, layer.bk, layer.bv, layer.bo, layer.b1, layer.b2):
            b.data = np.zeros_like(b.data)
        layer.w1.data = np.zeros_like(layer.w1.data)
        layer.w2.data = np.zeros_like(layer.w2.data)

        x = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=np.float32)
        out = model.forward(Tensor(x.reshape(1, 2, 2)), np.ones((1, 2), dtype=bool)).data[0]

        # independent transcription: scores, softmax, residual, two norms
        def norm(v):
            return (v - v.mean()) / np.sqrt(v.var() + 1e-5)

        scores = x @ x.T / np.sqrt(2.0)
        attn = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn /= attn.sum(axis=1, keepdims=True)
        stage1 = np.stack([norm(r) for r in x + attn @ x])
        expected = np.stack([norm(r) for r in stage1])  # zero FF, second norm
        np.testing.assert_allclose(out, expected, atol=1e-5)

    def test_attention_rows_sum_to_one_over_allowed_keys(self, tiny_config):
        # recompute the first layer's attention from its weights directly
        model = MeltModel(tiny_config, seed=3)
        layer = model.layers[0]
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (4, 8)).astype(np.float32)
        allowed = np.array([True, True, True, False])
        q = (x @ layer.wq.data + layer.bq.data).reshape(4, 2, 4).transpose(1, 0, 2)
        k = (x @ layer.wk.data + layer.bk.data).reshape(4, 2, 4).transpose(1, 0, 2)
        scores = q @ k.transpose(0, 2, 1) / np.sqrt(4.0)
        scores = scores + np.where(allowed, 0.0, -1e9)[None, None, :]
        attn = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn /= attn.sum(axis=-1, keepdims=True)
        assert np.abs(attn[:, :, allowed].sum(axis=-1) - 1.0).max() < 1e-5
        assert attn[:, :, ~allowed].max() == 0.0

    def test_dropout_only_in_train_mode(self, small_config):
        model = MeltModel(small_config, seed=4)
        x = Tensor(np.random.default_rng(0).uniform(-1, 1, (1, 40, 32)).astype(np.float32))
        attn = np.ones((1, 40), dtype=bool)
        eval_a = model.forward(x, attn).data
        eval_b = model.forward(x, attn).data
        np.testing.assert_array_equal(eval_a, eval_b)
        train = model.forward(x, attn, train=True, rng=np.random.default_rng(0)).data
        assert not np.array_equal(eval_a, train)


def top_rows(model, chunk, plan, vectors, slot):
    """Top-layer output (1, 1, d) at ``slot``, the encoder's last layer run only there."""
    x, attn = embed(model, [chunk], None if plan is None else [plan], vectors)
    return model.forward(x, attn, rows=np.array([[slot]]))


class TestReconstruct:
    def test_identity_head_returns_top_layer_outputs(self, tiny_config):
        model = MeltModel(tiny_config, seed=5)
        model.head_w.data = np.eye(8, dtype=np.float32)
        model.head_b.data = np.zeros(8, dtype=np.float32)
        chunk = chunk_of(4)
        vectors = vectors_for(chunk, 8)
        plan = MaskPlan((Action.MASK_TOKEN, Action.KEEP, Action.KEEP, Action.KEEP),
                        {0: vectors["um0"]}, {})
        out = top_rows(model, chunk, plan, vectors, 0)
        preds = model.reconstruct_rows(out, np.array([0]), np.array([0]))
        np.testing.assert_allclose(preds.data[0], out.data[0, 0], rtol=1e-6)

    def test_prediction_sensitive_to_context(self, tiny_config):
        model = MeltModel(tiny_config, seed=6)
        chunk = chunk_of(4)
        vectors = vectors_for(chunk, 8)
        plan = MaskPlan((Action.MASK_TOKEN, Action.KEEP, Action.KEEP, Action.KEEP),
                        {0: vectors["um0"]}, {})

        def predict_at_zero(vecs):
            out = top_rows(model, chunk, plan, vecs, 0)
            return model.reconstruct_rows(out, np.array([0]), np.array([0])).data[0]

        before = predict_at_zero(vectors)
        moved = {k: v.copy() for k, v in vectors.items()}
        moved["um2"] = moved["um2"] + 1.0
        after = predict_at_zero(moved)
        assert np.abs(before - after).max() > 1e-6


class TestRepresentation:
    def test_shape_and_determinism(self, tiny_config):
        model = MeltModel(tiny_config, seed=7)
        chunk = chunk_of(3)
        vectors = vectors_for(chunk, 8)
        a = top_rows(model, chunk, None, vectors, 1).data
        b = top_rows(model, chunk, None, vectors, 1).data
        assert a.shape == (1, 1, 8)
        np.testing.assert_array_equal(a, b)

    def test_differs_from_raw_mean_vector(self, tiny_config):
        model = MeltModel(tiny_config, seed=8)
        chunk = chunk_of(3)
        vectors = vectors_for(chunk, 8)
        rep = top_rows(model, chunk, None, vectors, 0).data[0, 0]
        assert np.abs(rep - vectors["um0"]).max() > 1e-3


def test_frozen_model_safe_for_concurrent_inference(tiny_config):
    from concurrent.futures import ThreadPoolExecutor
    model = MeltModel(tiny_config, seed=10)
    rng = np.random.default_rng(0)
    inputs = [rng.uniform(-1, 1, (1, 4, 8)).astype(np.float32) for _ in range(8)]
    attn = np.ones((1, 4), dtype=bool)
    serial = [model.forward(Tensor(x.copy()), attn).data for x in inputs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(
            lambda x: model.forward(Tensor(x.copy()), attn).data, inputs))
    for a, b in zip(serial, threaded):
        np.testing.assert_array_equal(a, b)


class TestParameterCount:
    @pytest.mark.parametrize("layers,target", [(2, 11_621_632), (6, 33_677_568)])
    def test_within_two_percent_of_reference(self, layers, target):
        model = MeltModel(MeltConfig(n_layers=layers, d_model=768, ff_dim=2048,
                                     n_heads=8), seed=0)
        count = model.parameter_count()
        assert abs(count - target) / target < 0.02

    def test_exact_layout_arithmetic(self):
        # positions 40*768, mask/pad 768 each, per layer 4*(768^2+768) attention
        # + (768*2048+2048 + 2048*768+768) feed-forward + 2*(768+768) norms,
        # head 768^2+768
        d, ff, L = 768, 2048, 2
        per_layer = 4 * (d * d + d) + (d * ff + ff) + (ff * d + d) + 4 * d
        expected = 40 * d + 2 * d + L * per_layer + d * d + d
        model = MeltModel(MeltConfig(n_layers=L, d_model=d, ff_dim=ff, n_heads=8), seed=0)
        assert model.parameter_count() == expected

    def test_manifest_order_is_stable(self, tiny_config):
        names_a = [n for n, _ in MeltModel(tiny_config, seed=0).named_parameters()]
        names_b = [n for n, _ in MeltModel(tiny_config, seed=1).named_parameters()]
        assert names_a == names_b
        assert names_a[0] == "pos_embedding" and names_a[-1] == "head.b"


# ---------------------------------------------------------------------------
# the top layer run only at the rows a caller reads
# ---------------------------------------------------------------------------


def pruned_case(n_layers, seed=0):
    """float64 model at d 16, PAD tails, and a row grid with repeated cells."""
    cfg = MeltConfig(n_layers=n_layers, d_model=16, ff_dim=32, n_heads=4, dropout=0.2,
                     max_seq=6)
    model = MeltModel(cfg, seed=seed, dtype=np.float64)
    x = np.random.default_rng(seed + 100).uniform(-1, 1, (3, 6, 16))
    attn = np.array([[True] * 6, [True] * 4 + [False] * 2, [True] * 2 + [False] * 4])
    rows = np.array([[5, 0, 2], [1, 1, 3], [0, 4, 0]])  # repeats; PAD slots 4 and 5
    return model, x, attn, rows


def run_both(model, x, attn, rows, train, weights=None):
    """Full and pruned forwards from equal generators, with an optional loss backward.

    Returns (full rows, pruned rows, full rng, pruned rng, full grads, pruned grads).
    """
    from melt.tensor import backward, gather_bl
    results = []
    for pruned in (False, True):
        rng = np.random.default_rng(7) if train else None
        xt = Tensor(x.copy(), requires_grad=True)
        out = model.forward(xt, attn, train=train, rng=rng,
                            rows=rows if pruned else None)
        if not pruned:
            out = gather_bl(out, np.arange(len(rows))[:, None], rows)
        grads = None
        if weights is not None:
            backward((out * Tensor(weights)).sum())
            grads = {name: np.asarray(p.grad) for name, p in model.named_parameters()
                     if name.startswith("layers.")}
            grads["x"] = np.asarray(xt.grad)
        results.append((out.data, rng, grads))
    (full, rng_f, g_f), (part, rng_p, g_p) = results
    return full, part, rng_f, rng_p, g_f, g_p


class TestSelectedRows:
    @pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_rows_equal_full_forward_rows(self, n_layers, train):
        model, x, attn, rows = pruned_case(n_layers)
        full, part, rng_f, rng_p, _, _ = run_both(model, x, attn, rows, train)
        assert part.shape == (3, 3, 16)
        np.testing.assert_allclose(part, full, rtol=0, atol=1e-12)
        if train:
            assert rng_p.bit_generator.state == rng_f.bit_generator.state

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_train_mode_draws_the_full_masks(self, n_layers):
        # the generator ends where the full forward leaves it, and dropout is live
        model, x, attn, rows = pruned_case(n_layers)
        full, part, rng_f, rng_p, _, _ = run_both(model, x, attn, rows, train=True)
        assert rng_p.bit_generator.state == rng_f.bit_generator.state
        evaluated = model.forward(Tensor(x), attn, rows=rows).data
        assert np.abs(evaluated - part).max() > 1e-3

    @pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_gradients_match_full_path(self, n_layers, train):
        model, x, attn, rows = pruned_case(n_layers)
        weights = np.random.default_rng(5).uniform(-1, 1, (3, 3, 16))
        *_, g_full, g_part = run_both(model, x, attn, rows, train, weights)
        for name, want in g_full.items():
            if name.endswith(".bk"):
                continue  # a key bias shifts every score of a query alike: true gradient 0
            err = np.abs(g_part[name] - want).max()
            assert err <= 1e-9 * np.abs(want).max(), name

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_pruned_path_matches_finite_differences(self, n_layers):
        from conftest import max_rel_err, numeric_grad
        from melt.tensor import backward
        cfg = MeltConfig(n_layers=n_layers, d_model=8, ff_dim=16, n_heads=2, dropout=0.1,
                         max_seq=4)
        model = MeltModel(cfg, seed=3, dtype=np.float64)
        x = np.random.default_rng(4).uniform(-1, 1, (2, 4, 8))
        attn = np.array([[True] * 4, [True, True, True, False]])
        rows = np.array([[3, 1], [0, 0]])
        weights = Tensor(np.random.default_rng(6).uniform(-1, 1, (2, 2, 8)))

        def loss():
            # the same generator seed each call keeps the dropout masks fixed
            out = model.forward(Tensor(x), attn, train=True, rng=np.random.default_rng(9),
                                rows=rows)
            return (out * weights).sum()

        backward(loss())
        for name, p in model.named_parameters():
            if not name.startswith("layers."):
                continue  # embeddings and head lie outside the forward
            analytic = np.asarray(p.grad)
            numeric = numeric_grad(lambda: float(loss().data), p.data)
            assert max_rel_err(analytic, numeric) < 1e-6, name

    def test_without_rows_the_output_is_every_slot(self, tiny_config):
        model = MeltModel(tiny_config, seed=1)
        x = np.random.default_rng(0).uniform(-1, 1, (2, 4, 8)).astype(np.float32)
        attn = np.ones((2, 4), dtype=bool)
        every = model.forward(Tensor(x), attn, rows=np.tile(np.arange(4), (2, 1))).data
        full = model.forward(Tensor(x), attn).data
        assert full.shape == (2, 4, 8)
        np.testing.assert_allclose(every, full, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("rows", [[[0, 4], [1, 2]], [[0, -1], [1, 2]], [[0, 1]],
                                      [[0.0, 1.0], [1.0, 2.0]]])
    def test_bad_rows_rejected(self, tiny_config, rows):
        model = MeltModel(tiny_config, seed=1)
        with pytest.raises(ValueError, match="rows"):
            model.forward(Tensor(np.zeros((2, 4, 8), dtype=np.float32)),
                          np.ones((2, 4), dtype=bool), rows=np.array(rows))


# ---------------------------------------------------------------------------
# parameter initialization
# ---------------------------------------------------------------------------


class TestInit:
    def test_seeded_draw_order_is_unchanged(self, small_config):
        # pos, mask, pad, then per layer wq wk wv wo w1 w2, then the head;
        # biases and norms are constants and draw nothing
        model = MeltModel(small_config, seed=21)
        rng = np.random.default_rng(21)
        d, ff, length = 32, 64, 40

        def draw(shape):
            return (rng.standard_normal(shape) * 0.02).astype(np.float32)

        want = {"pos_embedding": draw((length, d)), "mask_vector": draw((d,)),
                "pad_vector": draw((d,))}
        for i in range(small_config.n_layers):
            for name, shape in (("wq", (d, d)), ("wk", (d, d)), ("wv", (d, d)),
                                ("wo", (d, d)), ("w1", (d, ff)), ("w2", (ff, d))):
                want[f"layers.{i}.{name}"] = draw(shape)
        want["head.w"] = draw((d, d))
        for name, p in model.named_parameters():
            if name in want:
                assert p.data.tobytes() == want[name].tobytes(), name
            else:
                fill = 1.0 if name.endswith("_g") else 0.0
                assert p.data.dtype == np.float32 and (p.data == fill).all(), name

    def test_from_params_copies_them_and_draws_nothing(self, small_config, monkeypatch):
        import melt.model as model_mod
        source = {n: p.data for n, p in MeltModel(small_config, seed=5).named_parameters()}

        def no_draw(*args):
            raise AssertionError("a model built from params drew random weights")

        monkeypatch.setattr(model_mod, "_gaussian", no_draw)
        model = MeltModel(small_config, seed=99, params=source)
        for name, p in model.named_parameters():
            assert p.data.tobytes() == source[name].tobytes(), name
            assert p.data.dtype == np.float32 and p.requires_grad
            assert not np.shares_memory(p.data, source[name]), name

    def test_from_params_rejects_a_wrong_shape(self, small_config):
        source = {n: p.data for n, p in MeltModel(small_config, seed=5).named_parameters()}
        source["layers.1.w1"] = np.zeros((3, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="layers.1.w1"):
            MeltModel(small_config, params=source)
