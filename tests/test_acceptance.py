"""Release gate: every check the package must pass, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain pytest shows them only for failures.  The two trend checks
train small models for several minutes; everything else finishes in
seconds.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np

from moelab.analyzer import SIZE_LADDER, improvement_table, load_reference_points
from moelab.checkpoint import (
    Checkpoint,
    checkpoint_from_model,
    model_from_checkpoint,
)
from moelab.cli import EVAL_SEED_OFFSET, MEMBER_SEED_STRIDE, main
from moelab.dataset import DatasetSpec, make_synthetic_dataset
from moelab.layers import (
    ExpertMLP,
    MoELayer,
    layer_forward,
    tile,
)
from moelab.losses import AuxLossState, member_avg_cross_entropy, total_loss
from moelab.metrics import MetricAccumulator
from moelab.model import build_model, forward, preset
from moelab.flops import deep_ensemble_flops, flops_estimate, tiling_saving
from moelab.rng import Rng
from moelab.routing import RouterParams, partitioned_gate
from moelab.tensor import (Tensor, attention, dense, reshape, softmax,
                           transpose)
from moelab.trainer import TrainConfig, evaluate, train

from oracles import (BeMoeView, be_dense_forward, finite_difference_check,
                     matmul, tsum)


def report(n, ok, detail):
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def metrics_of(member_probs, labels):
    """The report metrics of one (M, N, C) batch of member predictions."""
    acc = MetricAccumulator()
    acc.add_batch(member_probs, labels)
    return acc.result()


# ---------------------------------------------------------------------------
# 1. routing matches the brute-force softmax + stable-sort oracle


def brute_force_topk(logits, k):
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    order = np.argsort(-p, axis=1, kind="stable")
    idx = order[:, :k]
    return idx, np.take_along_axis(p, idx, axis=1)


def test_criterion_01_routing_oracle():
    start = time.time()
    gen = np.random.default_rng(20240816)
    mismatches = 0
    for trial in range(10_000):
        e = int(gen.integers(1, 17))
        k = int(gen.integers(1, e + 1))
        d = int(gen.integers(1, 5))
        h = gen.normal(size=(1, d))
        w = gen.normal(size=(e, d))
        if trial % 9 == 0:
            w[: e // 2 + 1] = w[0]  # duplicate rows force gate ties
        router = RouterParams(weights=[Tensor(w)], noise_scale=0.0)
        dec = partitioned_gate(Tensor(h), router, k, Rng(0))
        idx, wts = brute_force_topk(h @ w.T, k)
        if not (np.array_equal(dec.indices, idx)
                and np.array_equal(dec.weights.data, wts)):
            mismatches += 1
    took = time.time() - start
    ok = mismatches == 0 and took < 5.0
    assert report(1, ok, f"10^4 gate instances, {mismatches} mismatches, "
                  f"{took:.1f}s (< 5s)")


# ---------------------------------------------------------------------------
# 2. finite-difference gradient fidelity on every layer family


def _expert(gen, d, f, q=None):
    q = d if q is None else q
    return ExpertMLP(
        w1=Tensor(gen.normal(size=(d, f)), requires_grad=True),
        b1=Tensor(gen.normal(size=f), requires_grad=True),
        w2=Tensor(gen.normal(size=(f, q)), requires_grad=True),
        b2=Tensor(gen.normal(size=q), requires_grad=True),
    )


def _expert_params(mlp):
    return [mlp.w1, mlp.b1, mlp.w2, mlp.b2]


def test_criterion_02_gradient_fidelity():
    start = time.time()
    gen = np.random.default_rng(7)
    errs = {}

    x = Tensor(gen.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(gen.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(gen.normal(size=5), requires_grad=True)
    errs["dense"] = finite_difference_check(
        lambda: tsum(dense(x, w, b) * dense(x, w, b)), [x, w, b])

    z = Tensor(gen.normal(size=(3, 5)), requires_grad=True)
    c = Tensor(gen.normal(size=(3, 5)))
    errs["softmax"] = finite_difference_check(
        lambda: tsum(softmax(z, axis=-1) * c), [z])

    mlp = _expert(gen, 3, 4)
    xm = Tensor(gen.normal(size=(2, 3)), requires_grad=True)
    errs["expert_mlp"] = finite_difference_check(
        lambda: tsum(mlp.forward(xm) * mlp.forward(xm)),
        [xm] + _expert_params(mlp))

    def routed_layer(mode, m=1):
        e, k, d, f = 4, 2, 3, 4
        experts = [_expert(gen, d, f) for _ in range(e)]
        if mode == "pbe":
            router = RouterParams(
                weights=[Tensor(gen.normal(size=(e // m, d)),
                                requires_grad=True) for _ in range(m)],
                noise_scale=0.2)
            return MoELayer(experts=experts, router=router, k=1, mode=mode)
        router = RouterParams(
            weights=[Tensor(gen.normal(size=(e, d)), requires_grad=True)],
            noise_scale=0.2)
        return MoELayer(experts=experts, router=router, k=k, mode=mode)

    layer = routed_layer("moe")
    h = Tensor(gen.normal(size=(3, 3)), requires_grad=True)
    params = [h] + list(layer.router.weights)
    for mlp_ in layer.experts:
        params += _expert_params(mlp_)

    def f_moe():
        out, _ = layer_forward(h, layer, Rng(5), train=True, dropout_on=False)
        return tsum(out * out)

    errs["moe_layer"] = finite_difference_check(f_moe, params)

    layer_p = routed_layer("pbe", m=2)
    hp = Tensor(gen.normal(size=(4, 3)), requires_grad=True)  # 2 rows x 2 members
    params = [hp] + list(layer_p.router.weights)
    for mlp_ in layer_p.experts:
        params += _expert_params(mlp_)

    def f_pbe():
        out, _ = layer_forward(hp, layer_p, Rng(6), train=True,
                               dropout_on=False)
        return tsum(out * out)

    errs["pbe_layer"] = finite_difference_check(f_pbe, params)

    layer_m = routed_layer("multihead")
    hm = Tensor(gen.normal(size=(2, 3)), requires_grad=True)

    def f_mh():
        out, _ = layer_forward(hm, layer_m, Rng(7), train=True,
                               dropout_on=False)
        return tsum(out * out)

    errs["multihead_layer"] = finite_difference_check(
        f_mh, [hm] + list(layer_m.router.weights))

    def be_dense(d_in, d_out, m):
        # slow weight u, then the members' fast weights r and s
        return (Tensor(gen.normal(size=(d_in, d_out)), requires_grad=True),
                [Tensor(gen.normal(size=d_in), requires_grad=True)
                 for _ in range(m)],
                [Tensor(gen.normal(size=d_out), requires_grad=True)
                 for _ in range(m)])

    u1, r1, s1 = be_dense(3, 4, 2)
    b1 = Tensor(gen.normal(size=4), requires_grad=True)
    u2, r2, s2 = be_dense(4, 3, 2)
    b2 = Tensor(gen.normal(size=3), requires_grad=True)
    be = ExpertMLP(u1, b1, u2, b2, list(zip(r1, s1, r2, s2)))
    hb = Tensor(gen.normal(size=(4, 3)), requires_grad=True)
    params = [hb, b1, b2, u1, u2] + r1 + s1 + r2 + s2
    errs["be_mlp"] = finite_difference_check(
        lambda: tsum(be.forward(hb) * be.forward(hb)), params)

    # total loss with the realized router noise held fixed: the load
    # estimator treats the noisy draw as a constant threshold
    b_, d_, e_, c_ = 4, 3, 4, 3
    ht = Tensor(gen.normal(size=(b_, d_)), requires_grad=True)
    wt = Tensor(gen.normal(size=(e_, d_)), requires_grad=True)
    head = Tensor(gen.normal(size=(d_, c_)), requires_grad=True)
    labels = gen.integers(0, c_, size=b_)
    noisy = ht.data @ wt.data.T + 0.3 * gen.normal(size=(b_, e_))

    def f_loss():
        clean = matmul(ht, transpose(wt, (1, 0)))
        aux = AuxLossState(members=[(clean, noisy)], sigma=0.3, k=2)
        probs = reshape(softmax(matmul(ht, head), axis=-1), (1, b_, c_))
        data = member_avg_cross_entropy(probs, labels)
        return total_loss(data, [aux], 0.1)

    errs["total_loss"] = finite_difference_check(f_loss, [ht, wt, head])

    # two images of 3 tokens, 2 heads; the key bias shifts every score of
    # a query's row alike, which the softmax cancels, so its gradient is 0
    # up to roundoff, which central differences cannot resolve
    xa = Tensor(gen.normal(size=(6, 4)), requires_grad=True)
    attn = [Tensor(gen.normal(size=shape), requires_grad=True)
            for _ in "qkvo" for shape in ((4, 4), (4,))]
    ca = Tensor(gen.normal(size=(6, 4)))
    errs["attention"] = finite_difference_check(
        lambda: tsum(attention(xa, attn, 2, 3) * ca),
        [xa] + attn[:3] + attn[4:])
    assert np.abs(attn[3].grad).max() < 1e-12

    took = time.time() - start
    worst = max(errs.values())
    ok = worst < 1e-4 and took < 60.0
    detail = " ".join(f"{k}={v:.1e}" for k, v in errs.items())
    assert report(2, ok, f"max rel err {worst:.2e} (< 1e-4), {took:.1f}s "
                  f"(< 60s) [{detail}]")


# ---------------------------------------------------------------------------
# 3. batch-ensemble layer equals its mixture-of-experts reading


def test_criterion_03_be_view_equivalence():
    gen = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        m = int(gen.integers(1, 5))
        d_in = int(gen.integers(1, 7))
        d_out = int(gen.integers(1, 7))
        rows = int(gen.integers(1, 5))
        be = (Tensor(gen.normal(size=(d_in, d_out))),
              [Tensor(gen.normal(size=d_in)) for _ in range(m)],
              [Tensor(gen.normal(size=d_out)) for _ in range(m)])
        h = Tensor(gen.normal(size=(m * rows, d_in)))
        direct = be_dense_forward(h, *be).data
        viewed = BeMoeView(*be).forward(h)
        worst = max(worst, float(np.abs(direct - viewed).max()))
    ok = worst < 1e-12
    assert report(3, ok, f"100 instances, max |direct - view| = {worst:.2e} "
                  f"(< 1e-12)")


# ---------------------------------------------------------------------------
# 4. structural reductions


def test_criterion_04_structural_reductions(naive_forward):
    gen = np.random.default_rng(4)
    images = gen.normal(size=(3, 8, 8, 3))
    checks = {}

    # a) the partitioned ensemble with one member IS the routed model: at
    #    M=1 the two share every parameter name, so the vmoe checkpoint
    #    loads as pbe (both sides reloaded, so the float32 rounding matches)
    vmoe_spec = preset("tiny", variant="vmoe", e=4, k=2, m=1)
    ckpt = checkpoint_from_model(build_model(vmoe_spec, Rng(1)))
    vmoe = model_from_checkpoint(ckpt)
    pbe1 = model_from_checkpoint(
        Checkpoint(replace(vmoe_spec, variant="pbe"), ckpt.params))
    out_a = forward(vmoe, images, Rng(9), train=False).ensemble_probs.data
    out_b = forward(pbe1, images, Rng(9), train=False).ensemble_probs.data
    checks["pbe_m1_bitwise"] = np.array_equal(out_a, out_b)

    # b) tiled members without routing noise are identical: KL exactly 0
    ot_spec = preset("tiny", variant="only_tiling", e=4, k=1, m=2,
                     noise_multiplier=0.0)
    ot = build_model(ot_spec, Rng(2))
    out = forward(ot, images, Rng(10), train=False)
    checks["zero_noise_kl_zero"] = metrics_of(
        out.member_probs.data, np.zeros(3, dtype=int))["kl_diversity"] == 0.0

    # c) every member block of a tiled batch is the batch itself
    rt = True
    for m in (1, 2, 3, 5):
        x = gen.normal(size=(4, 3))
        blocks = tile(Tensor(x), m).data.reshape(m, 4, 3)
        rt = rt and all(np.array_equal(block, x) for block in blocks)
    checks["tile_blocks"] = rt

    # d) tiling at the first routed block (what forward does) predicts
    #    exactly what tiling the images up front does; flops.py prices both
    eq = True
    for variant in ("pbe", "only_tiling", "be"):
        spec = preset("tiny", variant=variant, e=4, k=1, m=2)
        model = build_model(spec, Rng(3))
        d_out = forward(model, images, Rng(11),
                        train=False).member_probs.data
        n_out = naive_forward(model, images, Rng(11),
                              train=False).member_probs.data
        eq = eq and np.array_equal(d_out, n_out)
    checks["deferred_equals_naive"] = eq

    ok = all(checks.values())
    detail = " ".join(f"{k}={'y' if v else 'N'}" for k, v in checks.items())
    assert report(4, ok, detail)


# ---------------------------------------------------------------------------
# 5. desk-scale ablation trend: partitioning beats tiling-only and
#    partitioning-only in NLL, and carries far more member diversity

# default routing noise scales as 1/E, so a wide expert pool separates
# partitioned diversity from pure tiling noise
C5_SEEDS = 5
C5_STEPS = 180
C5_E = 16
C5_NOISE_STD = 2.5


def _c5_dataset(s):
    return make_synthetic_dataset(DatasetSpec(
        classes=4, image_size=8, channels=3, n_train=256, n_val=128,
        n_test=512, noise_std=C5_NOISE_STD, shift_severity=2, seed=100 + s))


def _c5_run(variant, s):
    spec = preset("tiny", variant=variant, mlp_dim=128, e=C5_E, k=1, m=2)
    model = build_model(spec, Rng(s))
    cfg = TrainConfig(steps=C5_STEPS, batch_size=32, base_lr=0.05, seed=s)
    model, _ = train(model, _c5_dataset(s), cfg)
    return evaluate(model, _c5_dataset(s), Rng(1000 + s))


def test_criterion_05_ablation_trend():
    start = time.time()
    nll = {v: [] for v in ("pbe", "only_tiling", "only_partitioning")}
    kl = {"pbe": [], "only_tiling": []}
    for s in range(C5_SEEDS):
        for v in nll:
            rep = _c5_run(v, s)
            nll[v].append(rep.nll)
            if v in kl:
                kl[v].append(rep.kl_diversity)
    mean = {v: math.fsum(xs) / len(xs) for v, xs in nll.items()}
    kl_pbe = math.fsum(kl["pbe"]) / C5_SEEDS
    kl_ot = math.fsum(kl["only_tiling"]) / C5_SEEDS
    ratio = kl_pbe / kl_ot
    took = time.time() - start
    ok_nll = mean["pbe"] < mean["only_tiling"] \
        and mean["pbe"] < mean["only_partitioning"]
    ok_kl = ratio > 10.0
    ok = ok_nll and ok_kl and took < 600.0
    assert report(
        5, ok,
        f"nll pbe={mean['pbe']:.4f} < tiling={mean['only_tiling']:.4f} "
        f"and < partitioning={mean['only_partitioning']:.4f}: "
        f"{'y' if ok_nll else 'N'}; kl ratio {ratio:.1f} (> 10): "
        f"{'y' if ok_kl else 'N'}; {took:.0f}s (< 600s)")


# ---------------------------------------------------------------------------
# 6. deep-ensemble grid: more members never hurt mean NLL

C6_STEPS = 150


def test_criterion_06_ensemble_grid_trend():
    start = time.time()
    mean_nll = {}
    for k in (1, 2):
        for m in (1, 2):
            vals = []
            for s in range(5):
                ds = _c5_dataset(s)
                spec = preset("tiny", variant="vmoe", mlp_dim=128, e=4,
                              k=k, m=1)
                models = []
                for j in range(m):
                    seed = s + MEMBER_SEED_STRIDE * j
                    model = build_model(spec, Rng(seed))
                    cfg = TrainConfig(steps=C6_STEPS, batch_size=32,
                                      base_lr=0.05, seed=seed)
                    model, _ = train(model, ds, cfg)
                    models.append(model)
                rep = evaluate(None, ds, Rng(s + EVAL_SEED_OFFSET),
                               models=models)
                vals.append(rep.nll)
            mean_nll[(k, m)] = math.fsum(vals) / len(vals)
    took = time.time() - start
    ok_trend = all(mean_nll[(k, 2)] <= mean_nll[(k, 1)] for k in (1, 2))
    ok = ok_trend and took < 900.0
    cells = " ".join(f"K{k}M{m}={mean_nll[(k, m)]:.4f}"
                     for k in (1, 2) for m in (1, 2))
    assert report(6, ok, f"{cells}; non-increasing in M: "
                  f"{'y' if ok_trend else 'N'}; {took:.0f}s (< 900s)")


# ---------------------------------------------------------------------------
# 7. cost-model ratios


def test_criterion_07_flops_ratios():
    checks = {}
    spec = preset("S/32", variant="vmoe", e=32, k=1, m=1)
    single = flops_estimate(spec, 100, 8)
    exact = all(
        deep_ensemble_flops(spec, m, 100, 8) == m * single
        for m in (1, 2, 3, 5))
    checks["ensemble_exact_multiple"] = exact

    saving = tiling_saving(preset("L/16", variant="pbe", e=32, k=2, m=2))
    checks["l16_saving_in_window"] = 0.42 <= saving <= 0.52

    ok = all(checks.values())
    assert report(7, ok, f"deep ensemble = M x single exactly: "
                  f"{'y' if exact else 'N'}; L/16 deferred saving "
                  f"{100 * saving:.1f}% in [42%, 52%]")


# ---------------------------------------------------------------------------
# 8. analyzer reproduces the published improvement table


EXPECTED_RAW = {"S/32": 9.82, "B/32": 9.53, "L/32": 3.76, "L/16": 5.38,
                "H/14": 4.27}


def test_criterion_08_improvement_table():
    rows = load_reference_points()
    table = improvement_table(rows, "pbe")
    raw = {family: r for family, r, _ in table}
    norm = {family: n for family, _, n in table}
    raw_ok = all(abs(raw[f] - EXPECTED_RAW[f]) < 0.2 for f in EXPECTED_RAW)
    ordered = [norm[f] for f in SIZE_LADDER]
    mono_ok = all(a < b for a, b in zip(ordered, ordered[1:]))
    anchor_ok = abs(norm["H/14"] - 4.27) < 0.2
    ok = raw_ok and mono_ok and anchor_ok
    raws = " ".join(f"{f}={raw[f]:.2f}" for f in SIZE_LADDER)
    assert report(8, ok, f"raw [{raws}] within +-0.2; normalized monotone: "
                  f"{'y' if mono_ok else 'N'}; anchor {norm['H/14']:.2f}")


# ---------------------------------------------------------------------------
# 9. metric unit checks


def test_criterion_09_metric_units():
    checks = {}

    gen = np.random.default_rng(99)
    raw = gen.uniform(size=(100_000, 5))
    probs = raw / raw.sum(axis=1, keepdims=True)
    u = gen.uniform(size=100_000)
    labels = (u[:, None] > np.cumsum(probs, axis=1)).sum(axis=1)
    self_ece = metrics_of(probs[None], labels)["ece"]
    checks["self_consistent_ece"] = self_ece < 0.01

    hand_p = np.array([[[0.5, 0.5], [0.25, 0.75]]])
    nll = metrics_of(hand_p, np.array([0, 1]))["nll"]
    checks["hand_nll"] = abs(nll - (-(math.log(0.5) + math.log(0.75)) / 2)) \
        < 1e-4

    conf = np.array([[[1.0, 0.0], [1.0, 0.0]]])
    checks["hand_ece"] = \
        abs(metrics_of(conf, np.array([0, 1]))["ece"] - 0.5) < 1e-4

    mp = np.array([[[0.75, 0.25]], [[0.25, 0.75]]])
    kl = metrics_of(mp, np.array([0]))["kl_diversity"]
    checks["hand_kl"] = abs(kl - 0.5 * math.log(3.0)) < 1e-4

    jensen = True
    for _ in range(50):
        m = int(gen.integers(2, 5))
        b = int(gen.integers(1, 9))
        c = int(gen.integers(2, 6))
        raw = gen.uniform(size=(m, b, c))
        member = raw / raw.sum(axis=-1, keepdims=True)
        y = gen.integers(0, c, size=b)
        out = metrics_of(member, y)
        jensen = jensen and out["nll"] <= out["member_nll"] + 1e-12
    checks["ensemble_nll_jensen"] = jensen

    ok = all(checks.values())
    detail = " ".join(f"{k}={'y' if v else 'N'}" for k, v in checks.items())
    assert report(9, ok, f"{detail} (self ECE {self_ece:.4f})")


# ---------------------------------------------------------------------------
# 10. bitwise reproducibility of the experiment runner


def test_criterion_10_run_determinism(tmp_path):
    cfg = {
        "model": dict(image_size=8, patch_size=4, hidden=16, mlp_dim=32,
                      layers=2, heads=2, classes=4, e=4, k=1, m=1,
                      last_n=1, variant="vmoe"),
        "train": dict(steps=5, batch_size=8, base_lr=0.05, seed=3),
        "dataset": dict(classes=4, image_size=8, channels=3, n_train=32,
                        n_val=16, n_test=32, noise_std=0.5, seed=11),
        "repetitions": 2,
        "output_dir": str(tmp_path / "unused"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    rc1 = main(["run", "--config", str(path), "--output-dir", str(out1)])
    rc2 = main(["run", "--config", str(path), "--output-dir", str(out2)])
    same_summary = (out1 / "summary.csv").read_bytes() \
        == (out2 / "summary.csv").read_bytes()
    same_ckpt = all(
        (out1 / f"seed_{i:03d}" / "checkpoint.bin").read_bytes()
        == (out2 / f"seed_{i:03d}" / "checkpoint.bin").read_bytes()
        for i in range(2))
    ok = rc1 == 0 and rc2 == 0 and same_summary and same_ckpt
    assert report(10, ok, f"summary bytes equal: "
                  f"{'y' if same_summary else 'N'}; checkpoint bytes equal: "
                  f"{'y' if same_ckpt else 'N'}")
