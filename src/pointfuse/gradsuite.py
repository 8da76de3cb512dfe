"""The gradient verification suite: one finite-difference check per
differentiable stage, from single ops up to the whole network and its
losses.  ``pointfuse gradcheck`` runs it and writes the errors; the
acceptance gate runs it through ``cli._gradcheck_cases``.
"""

from __future__ import annotations

import numpy as np

from . import boxes, frustum, fusion, geometry, losses, nn, tensor
from .config import NetworkConfig
from .nn import Rng
from .tensor import Tensor


def gradcheck_cases(seed: int, report: list | None = None):
    """Yield (name, tolerance, fn) for every differentiable stage; each
    fn returns its ``nn.gradcheck`` error.  If ``report`` is a list, each
    fn also runs ``nn.directional_gradcheck`` on the same closure and
    appends (max |a - n|, coordinates skipped, coordinates probed,
    directional error) to it."""
    rng = Rng(seed)

    def gradcheck(fn, tensors, rng, **kw):
        if report is None:
            return nn.gradcheck(fn, tensors, rng=rng, **kw)
        probe = []
        err = nn.gradcheck(fn, tensors, rng=rng, report=probe, **kw)
        directional = nn.directional_gradcheck(fn, tensors, rng=rng.derive("direction"))
        report.append(probe[0] + (directional,))
        return err

    def case_linear():
        layer = nn.LinearLayer(rng.derive("lin"), 5, 4)
        x = Tensor(rng.normal((7, 5)), requires_grad=True)
        ps = [t for _, t in nn.named_params(layer, "l")] + [x]
        return gradcheck(lambda: tensor.tsum(layer(x) ** 2.0), ps, rng=rng.derive("c1"))

    def case_lbr():
        layer = nn.LbrLayer(rng.derive("lbr"), 5, 4)
        x = Tensor(rng.normal((9, 5)), requires_grad=True)
        ps = [t for _, t in nn.named_params(layer, "l")] + [x]
        return gradcheck(lambda: tensor.tsum(layer(x) ** 2.0), ps, rng=rng.derive("c2"))

    def case_lbr_grouped():
        # a [M, L, C] input, as TransitionDown feeds its gathered groups;
        # it draws from its own stream, so adding it left every other
        # case's inputs as they were
        r = rng.derive("lbr-grouped")
        layer = nn.LbrLayer(r.derive("layer"), 5, 4)
        x = Tensor(r.normal((4, 3, 5)), requires_grad=True)
        w = Tensor(r.normal((4, 3, 4)))
        ps = [t for _, t in nn.named_params(layer, "l")] + [x]
        return gradcheck(lambda: tensor.tsum(layer(x) * w), ps, rng=r.derive("c"))

    def case_mlp():
        # this case draws from its own stream, so adding it left every
        # other case's inputs as they were
        r = rng.derive("mlp")
        layer = nn.Mlp(r.derive("layer"), 5, 6, 4)
        x = Tensor(r.normal((3, 4, 5)), requires_grad=True)
        w = Tensor(r.normal((3, 4, 4)))
        ps = [t for _, t in nn.named_params(layer, "m")] + [x]
        return gradcheck(lambda: tensor.tsum(layer(x) * w), ps, rng=r.derive("c"))

    def case_attend():
        # its own stream, so merging the positional-encoding case into it
        # left every other case's inputs as they were
        r = rng.derive("attend")
        qkv = Tensor(r.normal((8, 12)), requires_grad=True)
        coords = Tensor(r.uniform(-1, 1, (8, 3)), requires_grad=True)
        groups = np.sort(geometry.knn_group(coords.data, coords.data, 3), axis=1)
        pos_mlp = nn.Mlp(r.derive("pos"), 3, 5, 4)
        score = nn.Mlp(r.derive("score"), 4, 4, 4)
        w = Tensor(r.normal((8, 4)))
        ps = [qkv, coords] + [t for _, t in nn.named_params(pos_mlp, "p")
                              + nn.named_params(score, "s")]
        return gradcheck(lambda: tensor.tsum(
            fusion.attend(qkv, coords, groups, "multiply", pos_mlp, score) * w), ps, rng=r.derive("c"))

    def case_softmax():
        x = Tensor(rng.normal((6, 5)), requires_grad=True)
        w = Tensor(rng.normal((6, 5)))
        return gradcheck(lambda: tensor.tsum(tensor.softmax(x, axis=1) * w), [x], rng=rng.derive("c3"))

    def case_bilinear():
        grid = Tensor(rng.normal((6, 7, 3)), requires_grad=True)
        uv = Tensor(rng.uniform(0.2, 5.5, (9, 2)), requires_grad=True)
        return gradcheck(lambda: tensor.tsum(tensor.bilinear_sample(grid, uv) ** 2.0),
                         [grid, uv], rng=rng.derive("c4"))

    def case_trilinear():
        vol = Tensor(rng.normal((5, 6, 4, 3)), requires_grad=True)
        uvd = Tensor(np.stack([rng.uniform(0.2, 4.5, 8), rng.uniform(0.2, 4.2, 8),
                               rng.uniform(0.2, 3.5, 8)], axis=1), requires_grad=True)
        return gradcheck(lambda: tensor.tsum(tensor.trilinear_sample(vol, uvd) ** 2.0),
                         [vol, uvd], rng=rng.derive("c5"))

    def case_frustum_sample():
        # its own stream, so adding the case left every other case's inputs as they were
        r = rng.derive("frustum")
        weights = tensor.softmax(Tensor(r.normal((4, 5, 6))), axis=2)
        weights = Tensor(weights.data, requires_grad=True)
        feats = Tensor(r.normal((4, 5, 3)), requires_grad=True)
        uvd = Tensor(np.stack([r.uniform(0.2, 3.5, 8), r.uniform(0.2, 2.5, 8),
                               r.uniform(0.2, 4.5, 8)], axis=1), requires_grad=True)
        return gradcheck(lambda: tensor.tsum(tensor.frustum_sample(weights, feats, uvd) ** 2.0),
                         [weights, feats, uvd], rng=r.derive("c"))

    def case_attention(mode):
        def run():
            pa = fusion.PointAttention(rng.derive(f"pa{mode}"), 6, mode)
            coords = Tensor(rng.uniform(-1, 1, (10, 3)))
            feats = Tensor(rng.normal((10, 6)), requires_grad=True)
            groups = geometry.knn_group(coords.data, coords.data, 4)
            ps = [t for _, t in nn.named_params(pa, "pa")] + [feats]
            w = Tensor(rng.normal((10, 6)))
            return gradcheck(lambda: tensor.tsum(pa(coords, feats, groups) * w),
                             ps, max_coords=12, rng=rng.derive("c6"))
        return run

    def case_cross_fusion():
        cf = fusion.CrossFusion(rng.derive("cf"), 5, 4, 6, 9, 7)
        fr = Tensor(rng.normal((9, 5)), requires_grad=True)
        fp = Tensor(rng.normal((7, 4)), requires_grad=True)
        wr, wp = Tensor(rng.normal((9, 6))), Tensor(rng.normal((7, 6)))
        ps = [t for _, t in nn.named_params(cf, "cf")] + [fr, fp]

        def f():
            a, b, _ = cf(fr, fp)
            return tensor.tsum(a * wr) + tensor.tsum(b * wp)
        return gradcheck(f, ps, max_coords=8, rng=rng.derive("c7"))

    def case_down_up():
        coords = Tensor(rng.uniform(-2, 2, (18, 3)))
        feats = Tensor(rng.normal((18, 4)), requires_grad=True)
        td = fusion.TransitionDown(rng.derive("td"), 4, 6, 8, 4)
        tu = fusion.TransitionUp(rng.derive("tu"), 6, 4, 4)
        w = Tensor(rng.normal((18, 6)))
        ps = [t for _, t in nn.named_params(td, "td") + nn.named_params(tu, "tu")] + [feats]
        route = fusion.route_stream(coords.data, (8,), 4, attention_up=True)
        return gradcheck(
            lambda: tensor.tsum(tu(*td(coords, feats, route.down[0]), coords, feats, route.up[0]) * w),
            ps, max_coords=8, rng=rng.derive("c8"))

    def case_idw():
        sc = Tensor(rng.uniform(-2, 2, (10, 3)), requires_grad=True)
        sf = Tensor(rng.normal((10, 4)), requires_grad=True)
        tc = Tensor(rng.uniform(-2, 2, (6, 3)), requires_grad=True)
        w = Tensor(rng.normal((6, 4)))
        idx = geometry.knn_group(tc.data, sc.data, fusion.IDW_K)
        return gradcheck(lambda: tensor.tsum(fusion.idw_interpolate(tc, sc, sf, idx) * w),
                         [sc, sf, tc], rng=rng.derive("c9"))

    def case_head():
        head = fusion.ProposalHead(rng.derive("head"), 5, boxes.CLASSES, boxes.DEFAULT_ANCHORS, 6, 6)
        coords = Tensor(rng.uniform(0, 10, (8, 3)))
        feats = Tensor(rng.normal((8, 5)), requires_grad=True)
        ws = (Tensor(rng.normal((8, 3))), Tensor(rng.normal((8, 3))), Tensor(rng.normal((8, 8))))
        ps = [t for _, t in nn.named_params(head, "head")] + [feats]

        def f():
            o = head(coords, feats)
            return (tensor.tsum(o.votes * ws[0]) + tensor.tsum(o.cls_prob * ws[1])
                    + tensor.tsum(o.reg * ws[2]))
        return gradcheck(f, ps, max_coords=8, rng=rng.derive("c10"))

    def case_losses():
        logits = Tensor(rng.normal((12, 3)), requires_grad=True)
        fg = rng.integers(0, 2, (12, 3)).astype(float)
        x = Tensor(rng.normal((12,)), requires_grad=True)

        def f():
            return (tensor.tsum(losses.focal_loss(tensor.sigmoid(logits), fg))
                    + tensor.tsum(losses.smooth_l1(x)))
        return gradcheck(f, [logits, x], rng=rng.derive("c11"))

    def case_encoder_heads():
        enc = frustum.ImageEncoder(rng.derive("enc"), 3, (4, 6), (2, 2), 5, 8)
        image = rng.uniform(0, 1, (8, 12, 3))
        ws = (Tensor(rng.normal((2, 3, 5))), Tensor(rng.normal((2, 3, 8))),
              Tensor(rng.normal((2, 3, 8))), Tensor(rng.normal((2, 3, 2))))
        ps = [t for _, t in nn.named_params(enc, "encoder")]

        def f():
            fi, dp, og = enc(image)
            return (tensor.tsum(fi.feats * ws[0]) + tensor.tsum(dp.bin_logits * ws[1])
                    + tensor.tsum(dp.residuals * ws[2]) + tensor.tsum(og.offsets * ws[3]))
        return gradcheck(f, ps, max_coords=6, rng=rng.derive("c12"))

    def _miniature():
        cfg = NetworkConfig()
        cfg.n_foreground = 64
        cfg.n_raw = 32
        cfg.n_pseudo = 16
        cfg.raw_stages = (16, 8)
        cfg.pseudo_stages = (8, 4)
        cfg.stage_channels = (6, 8)
        cfg.l_group = 4
        cfg.feature_channels = 5
        net = fusion.TwoStreamNetwork(cfg, rng.derive("mini"))
        rc = Tensor(rng.uniform(0, 10, (32, 3)))
        rf = Tensor(rng.normal((32, 1)), requires_grad=True)
        pc = Tensor(rng.uniform(0, 10, (16, 3)))
        pf = Tensor(rng.normal((16, 5)), requires_grad=True)
        return net, rc, rf, pc, pf

    def case_miniature_network():
        net, rc, rf, pc, pf = _miniature()
        wr = Tensor(rng.normal((32, net.width)))
        wp = Tensor(rng.normal((16, net.width)))
        ps = [t for _, t in nn.named_params(net, "net")][:10] + [rf, pf]
        route = net.route_raw(rc.data)

        def f():
            ro, po, _ = net(rc, rf, pc, pf, route)
            return tensor.tsum(ro * wr) + tensor.tsum(po * wp)
        return gradcheck(f, ps, max_coords=4, rng=rng.derive("c13"))

    def case_total_loss():
        net, rc, rf, pc, pf = _miniature()
        head = fusion.ProposalHead(rng.derive("mhead"), net.width, boxes.CLASSES,
                                   boxes.DEFAULT_ANCHORS, 6, 6)
        logits = Tensor(rng.normal((3, 4, 6)), requires_grad=True)
        cells = np.stack([rng.integers(0, 4, 5), rng.integers(0, 3, 5)], axis=1)
        dtargets = losses.DepthTargets(cells, rng.integers(0, 6, 5),
                                       rng.uniform(0.1, 0.9, 5))
        rtargets = losses.RpnTargets(
            rng.integers(0, 2, (32, 3)).astype(float), np.ones(32, dtype=bool),
            rng.normal((32, 8), 0.3), rng.integers(0, 2, 32).astype(bool),
            rng.uniform(0, 10, (32, 3)), rng.integers(0, 2, 32).astype(bool))
        weights = losses.LossWeights()
        ps = ([t for _, t in nn.named_params(net, "net")][-8:]
              + [t for _, t in nn.named_params(head, "head")][:4] + [rf, pf, logits])
        route = net.route_raw(rc.data)

        def f():
            ro, _, _ = net(rc, rf, pc, pf, route)
            out = head(rc, ro)
            d_total, _, _ = losses.depth_loss(logits, tensor.sigmoid(logits), dtargets, weights)
            r_total, _ = losses.rpn_loss(out.cls_prob, out.reg, out.votes, rtargets, weights)
            return losses.total_loss(d_total, r_total, weights)
        return gradcheck(f, ps, max_coords=4, rng=rng.derive("c14"))

    yield "linear", 1e-6, case_linear
    yield "lbr", 1e-6, case_lbr
    yield "lbr-grouped", 1e-6, case_lbr_grouped
    yield "mlp", 1e-6, case_mlp
    yield "softmax", 1e-6, case_softmax
    yield "bilinear-sample", 1e-6, case_bilinear
    yield "trilinear-sample", 1e-6, case_trilinear
    yield "frustum-sample", 1e-6, case_frustum_sample
    yield "attend", 1e-6, case_attend
    yield "attention-subtract", 1e-6, case_attention("subtract")
    yield "attention-multiply", 1e-6, case_attention("multiply")
    yield "cross-fusion", 1e-6, case_cross_fusion
    yield "transition-down-up", 1e-6, case_down_up
    yield "idw-interpolation", 1e-6, case_idw
    yield "proposal-head", 1e-6, case_head
    yield "loss-terms", 1e-6, case_losses
    yield "image-encoder-heads", 1e-4, case_encoder_heads
    yield "miniature-network", 1e-4, case_miniature_network
    yield "total-loss", 1e-4, case_total_loss
