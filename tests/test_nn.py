import numpy as np
import pytest

from radspoof import nn
from radspoof.errors import CheckpointNotFoundError, FormatError, GradCheckError, InvalidInputError


# --- primitive forwards ---------------------------------------------------------


def test_affine_identity():
    x = np.random.default_rng(0).standard_normal((3, 4))
    out = nn.affine(nn.constant(x), nn.constant(np.eye(4)), nn.constant(np.zeros(4)))
    assert np.allclose(out.data, x)


def test_affine_arithmetic():
    out = nn.affine(
        nn.constant([[1.0, 2.0]]), nn.constant([[1.0], [1.0]]), nn.constant([0.5])
    )
    assert np.allclose(out.data, [[3.5]])


def test_affine_shape_mismatch():
    with pytest.raises(InvalidInputError):
        nn.affine(nn.constant(np.ones((2, 3))), nn.constant(np.ones((4, 2))))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal((4, 9)) * rng.uniform(0.1, 50)
        out = nn.softmax(nn.constant(x)).data
        assert np.all(out > 0)
        assert np.max(np.abs(out.sum(axis=-1) - 1.0)) < 1e-12


def test_xent_symmetric_case():
    loss = nn.softmax_xent(nn.constant([[0.0, 0.0]]), np.array([0]))
    assert abs(float(loss.data) - np.log(2.0)) < 1e-12


def test_xent_no_overflow():
    loss = nn.softmax_xent(nn.constant([[30.0, -30.0]]), np.array([0]))
    assert float(loss.data) < 1e-9
    assert np.isfinite(loss.data)


def test_xent_label_out_of_range():
    with pytest.raises(InvalidInputError):
        nn.softmax_xent(nn.constant([[0.0, 0.0]]), np.array([2]))


def test_xent_reverse_is_softmax_minus_onehot():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((6, 2))
    labels = rng.integers(0, 2, 6)
    t = nn.Tensor(logits, requires_grad=True)
    loss = nn.softmax_xent(t, labels)
    loss.backward()
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    soft = exp / exp.sum(axis=1, keepdims=True)
    soft[np.arange(6), labels] -= 1.0
    assert np.max(np.abs(t.grad - soft / 6)) < 1e-12


# --- asp ------------------------------------------------------------------------


def zero_asp(in_dim, attn_dim=2):
    return nn.AspParams(
        attn_w=nn.parameter(np.zeros((in_dim, attn_dim))),
        attn_b=nn.parameter(np.zeros(attn_dim)),
        score_w=nn.parameter(np.zeros((attn_dim, 1))),
        score_b=nn.parameter(np.zeros(1)),
    )


def test_asp_uniform_attention_is_mean_std():
    out = nn.asp(nn.constant([[0.0], [2.0]]), zero_asp(1)).data
    assert abs(out[0] - 1.0) < 1e-12
    assert abs(out[1] - np.sqrt(1.0 + nn.ASP_EPS)) < 1e-12


def test_asp_single_element():
    h = np.array([[1.5, -0.5, 3.0]])
    out = nn.asp(nn.constant(h), zero_asp(3)).data
    assert np.allclose(out[:3], h[0])
    assert np.allclose(out[3:], np.sqrt(nn.ASP_EPS))


def test_asp_zero_params_matches_loop_oracle():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((7, 5))
    out = nn.asp(nn.constant(h), zero_asp(5)).data
    n = h.shape[0]
    for d in range(5):
        mean = sum(h[i, d] for i in range(n)) / n
        second = sum(h[i, d] ** 2 for i in range(n)) / n
        std = np.sqrt(second - mean**2 + nn.ASP_EPS)
        assert abs(out[d] - mean) < 1e-12
        assert abs(out[5 + d] - std) < 1e-12


def test_asp_std_floor_and_finite():
    rng = np.random.default_rng(4)
    params = nn.init_asp(6, rng)
    for scale in (1e-8, 1.0, 1e4):
        h = rng.standard_normal((9, 6)) * scale
        out = nn.asp(nn.constant(h), params).data
        std_half = out[6:]
        assert np.all(np.isfinite(out))
        assert np.all(std_half >= np.sqrt(nn.ASP_EPS) * (1 - 1e-9))


def test_asp_batched_matches_rowwise():
    rng = np.random.default_rng(5)
    params = nn.init_asp(4, rng)
    h = rng.standard_normal((3, 6, 4))
    batched = nn.asp(nn.constant(h), params).data
    for b in range(3):
        single = nn.asp(nn.constant(h[b]), params).data
        assert np.max(np.abs(batched[b] - single)) < 1e-12


def test_asp_empty_pool_rejected():
    with pytest.raises(InvalidInputError):
        nn.asp(nn.constant(np.zeros((0, 3))), zero_asp(3))


# --- gradient checks -------------------------------------------------------------


def test_affine_gradient():
    rng = np.random.default_rng(6)
    err = nn.grad_check(
        lambda x, w, b: nn.affine(x, w, b),
        [rng.standard_normal((4, 8)), rng.standard_normal((8, 3)), rng.standard_normal(3)],
    )
    assert err < 1e-6


def test_xent_gradient():
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 2, 6)
    err = nn.grad_check(
        lambda z: nn.softmax_xent(z, labels), [rng.standard_normal((6, 2))]
    )
    assert err < 1e-6


def test_asp_gradient():
    rng = np.random.default_rng(8)
    params = nn.init_asp(8, rng)
    arrays = [
        rng.standard_normal((5, 8)),
        params.attn_w.data,
        params.attn_b.data,
        params.score_w.data,
        params.score_b.data,
    ]
    err = nn.grad_check(
        lambda h, aw, ab, sw, sb: nn.asp(h, nn.AspParams(aw, ab, sw, sb)), arrays
    )
    assert err < 1e-5


@pytest.mark.parametrize("seed", range(10))
def test_primitives_gradients_across_seeds(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 5))
    y = rng.standard_normal((3, 5))
    assert nn.grad_check(lambda a, b: nn.mul(a, b), [x, y], seed=seed) < 1e-6
    assert nn.grad_check(lambda a, b: nn.sub(a, b), [x, y], seed=seed) < 1e-6
    assert nn.grad_check(lambda a: nn.tanh(a), [x], seed=seed) < 1e-6
    assert nn.grad_check(lambda a: nn.sqrt(nn.add(nn.mul(a, a), 0.5)), [x], seed=seed) < 1e-6
    assert nn.grad_check(lambda a: nn.softmax(a), [x], seed=seed) < 1e-6
    assert nn.grad_check(lambda a: nn.sum_axis(a, 0), [x], seed=seed) < 1e-6
    assert (
        nn.grad_check(lambda a, b: nn.concat([a, b], axis=-1), [x, y], seed=seed) < 1e-6
    )
    assert nn.grad_check(lambda a, b: nn.stack([a, b], axis=1), [x, y], seed=seed) < 1e-6
    assert nn.grad_check(lambda a: nn.index_axis(a, 1, axis=0), [x], seed=seed) < 1e-6
    assert nn.grad_check(lambda a: nn.narrow(a, 1, 1, 3), [x], seed=seed) < 1e-6
    z = rng.standard_normal((2, 7, 3))
    assert nn.grad_check(lambda a: nn.block_mean(a, 3, axis=1), [z], seed=seed) < 1e-6


def test_broadcast_gradients():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 3, 5))
    v = rng.standard_normal(5)
    assert nn.grad_check(lambda a, b: nn.mul(a, b), [x, v]) < 1e-6
    assert nn.grad_check(lambda a, b: nn.add(a, b), [x, v]) < 1e-6
    row = rng.standard_normal((1, 5))
    mat = rng.standard_normal((6, 5))
    assert nn.grad_check(lambda a, b: nn.sub(a, b), [mat, row]) < 1e-6


def test_grad_check_detects_corrupted_gradient():
    def bad_tanh(a):
        out = np.tanh(a.data)
        # one coordinate of the jacobian diag inflated by 10 %
        def vjp(g):
            jac = 1.0 - out * out
            jac = jac.copy()
            jac.flat[0] *= 1.1
            return g * jac

        return nn.Tensor(out, _vjps=((a, vjp),))

    rng = np.random.default_rng(10)
    err = nn.grad_check(lambda a: bad_tanh(a), [rng.standard_normal((3, 3)) * 0.1])
    assert err > 1e-2


def test_grad_check_leaves_arrays_and_leaf_tensors_unchanged():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((3, 4))
    w = nn.parameter(rng.standard_normal((4, 2)))
    x_bytes, w_bytes = x.tobytes(), w.data.tobytes()
    assert nn.grad_check(lambda a, b: nn.affine(nn.tanh(a), b), [x, w]) < 1e-6
    assert x.tobytes() == x_bytes
    assert w.data.tobytes() == w_bytes


def test_grad_check_restores_a_leaf_when_fn_raises_mid_probe():
    w = nn.parameter(np.random.default_rng(15).standard_normal(5))
    w_bytes = w.data.tobytes()
    calls = []

    def fn(a):
        calls.append(1)
        if len(calls) == 3:  # the first probe's minus side
            raise GradCheckError("boom")
        return nn.tanh(a)

    with pytest.raises(GradCheckError):
        nn.grad_check(fn, [w])
    assert w.data.tobytes() == w_bytes


def test_block_mean_ragged_gradient():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((2, 7, 3))
    # tau does not divide 7; final block has length 1
    assert nn.grad_check(lambda a: nn.block_mean(a, 3, axis=1), [z]) < 1e-6


# --- tape ----------------------------------------------------------------------------


def test_edges_only_to_tensors_that_need_a_gradient():
    w = nn.parameter(np.ones(3))
    c = nn.constant(np.full(3, 2.0))
    mixed = nn.mul(w, c)
    assert mixed.requires_grad and [p for p, _ in mixed._vjps] == [w]
    frozen = nn.tanh(nn.mul(c, c))
    assert not frozen.requires_grad and frozen._vjps == ()
    w.requires_grad = False  # as scoring sets its loaded parameters
    assert nn.mul(w, c)._vjps == ()


def _every_op():
    """name -> (fn, input arrays): each op of the kernel with its VJP last on the tape."""
    rng = np.random.default_rng(16)
    x, y = rng.standard_normal((2, 4, 3)), rng.standard_normal(3)
    w, b = rng.standard_normal((3, 5)), rng.standard_normal(5)
    asp = lambda h, aw, ab, sw, sb: nn.asp(h, nn.AspParams(aw, ab, sw, sb))
    return {
        "add": (nn.add, [x, y]),
        "sub": (nn.sub, [x, y]),
        "mul": (nn.mul, [x, y]),
        "tanh": (nn.tanh, [x]),
        "sqrt": (nn.sqrt, [np.abs(x) + 0.5]),
        "affine": (nn.affine, [x, w, b]),
        "softmax": (lambda a: nn.softmax(a, axis=1), [x]),
        "sum_axis": (lambda a: nn.sum_axis(a, axis=1), [x]),
        "reshape": (lambda a: nn.reshape(a, (8, 3)), [x]),
        "concat": (lambda a, c: nn.concat([a, c], axis=1), [x, x[:, :2]]),
        "stack": (lambda a, c: nn.stack([a, c], axis=1), [x, -x]),
        "index_axis": (lambda a: nn.index_axis(a, 2, axis=1), [x]),
        "narrow": (lambda a: nn.narrow(a, axis=1, start=1, length=2), [x]),
        "block_mean": (lambda a: nn.block_mean(a, 3, axis=1), [x]),
        "asp": (asp, [x, rng.standard_normal((3, 2)), np.zeros(2),
                      rng.standard_normal((2, 1)), np.zeros(1)]),
        "softmax_xent": (lambda a: nn.softmax_xent(a, [0, 2, 1, 1]), [x[0]]),
    }


@pytest.mark.parametrize("name", sorted(_every_op()))
def test_no_vjp_writes_into_its_cotangent(name):
    # backward keeps contributions uncopied; that is sound only while no VJP
    # writes into the cotangent it is given, here a read-only array
    fn, inputs = _every_op()[name]
    cot = np.random.default_rng(17).standard_normal(fn(*inputs).shape)

    def leaf_grads(cotangent):
        leaves = [nn.parameter(x) for x in inputs]
        fn(*leaves).backward(cotangent)
        return [leaf.grad for leaf in leaves]

    frozen = cot.copy()
    frozen.setflags(write=False)
    writeable = cot.copy()
    for from_frozen, from_writeable in zip(leaf_grads(frozen), leaf_grads(writeable)):
        assert np.array_equal(from_frozen, from_writeable)
    assert np.array_equal(writeable, cot)


# --- adam -------------------------------------------------------------------------


def test_adam_zero_gradient_keeps_params():
    p = nn.parameter(np.array([1.0, -2.0]))
    ps = nn.ParamSet({"p": p})
    p.grad = np.zeros(2)
    ps.adam_step(lr=0.1)
    assert np.allclose(p.data, [1.0, -2.0])


def test_adam_single_step_hand_value():
    # m_hat = 1, v_hat = 1 after one step at g=1, so the step is lr/(1+eps)
    p = nn.parameter(np.array([0.0]))
    ps = nn.ParamSet({"p": p})
    p.grad = np.array([1.0])
    ps.adam_step(lr=0.1)
    assert abs(p.data[0] + 0.1) < 1e-8
    assert abs(p.data[0] + 0.1 / (1.0 + 1e-8)) < 1e-15


def test_adam_two_runs_identical():
    rng = np.random.default_rng(12)
    grads = [rng.standard_normal(4) for _ in range(20)]

    def run():
        p = nn.parameter(np.zeros(4))
        ps = nn.ParamSet({"p": p})
        for g in grads:
            p.grad = g
            ps.adam_step(lr=1e-2)
        return p.data.copy()

    assert np.array_equal(run(), run())


# --- checkpoint container ------------------------------------------------------------


def test_load_arrays_missing_tensor_is_format_error():
    ps = nn.ParamSet({"a": nn.parameter(np.ones(2)), "b": nn.parameter(np.zeros(3))})
    with pytest.raises(FormatError, match="'b'"):
        ps.load_arrays({"a": np.zeros(2)})


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    tensors = {
        "a.w": rng.standard_normal((3, 4)).astype(np.float32),
        "b": rng.standard_normal(7).astype(np.float32),
    }
    meta = {"kind": "baseline", "tau": "10"}
    path = tmp_path / "model.ckpt"
    nn.save_checkpoint(path, tensors, meta)
    loaded, loaded_meta = nn.load_checkpoint(path)
    assert loaded_meta == meta
    for name in tensors:
        assert np.array_equal(loaded[name], tensors[name])


def test_checkpoint_corruption_detected(tmp_path):
    path = tmp_path / "model.ckpt"
    nn.save_checkpoint(path, {"w": np.ones((2, 2), dtype=np.float32)}, {"kind": "x"})
    blob = bytearray(path.read_bytes())
    blob[-6] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        nn.load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"WRONG 9\nend\n")
    with pytest.raises(FormatError):
        nn.load_checkpoint(path)


def test_checkpoint_missing_file_is_not_found(tmp_path):
    with pytest.raises(CheckpointNotFoundError) as err:
        nn.load_checkpoint(tmp_path / "nope.ckpt")
    assert isinstance(err.value, FileNotFoundError)


@pytest.mark.parametrize("bad_line", [b"metakind\n", b"meta kind \xff\n"])
def test_checkpoint_malformed_header_line_is_format_error(tmp_path, bad_line):
    path = tmp_path / "model.ckpt"
    nn.save_checkpoint(path, {"w": np.ones(2, dtype=np.float32)}, {"kind": "x"})
    path.write_bytes(path.read_bytes().replace(b"meta kind x\n", bad_line))
    with pytest.raises(FormatError):
        nn.load_checkpoint(path)


def test_checkpoint_meta_value_ending_in_end(tmp_path):
    path = tmp_path / "model.ckpt"
    tensors = {"end": np.ones((2, 2), dtype=np.float32), "w": np.arange(3, dtype=np.float32)}
    meta = {"note": "legend", "tail": "end", "kind": "x"}
    nn.save_checkpoint(path, tensors, meta)
    loaded, loaded_meta = nn.load_checkpoint(path)
    assert loaded_meta == meta
    for name in tensors:
        assert np.array_equal(loaded[name], tensors[name])


@pytest.mark.parametrize(
    "tensors, meta",
    [
        ({"w": np.ones(2)}, {"note": "leg\nend"}),
        ({"w": np.ones(2)}, {"no\nte": "x"}),
        ({"w": np.ones(2)}, {"no te": "x"}),
        ({"w\nend": np.ones(2)}, {"note": "x"}),
    ],
)
def test_checkpoint_rejects_header_breaking_text(tmp_path, tensors, meta):
    with pytest.raises(InvalidInputError):
        nn.save_checkpoint(tmp_path / "model.ckpt", tensors, meta)
    assert not (tmp_path / "model.ckpt").exists()
