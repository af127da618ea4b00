#include "model/transformer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"

namespace specontext {
namespace model {

Transformer::Transformer(ModelConfig config, ModelWeights weights)
    : config_(std::move(config)), weights_(std::move(weights))
{
    config_.validate();
    if (static_cast<int64_t>(weights_.layers.size()) != config_.layers)
        throw std::invalid_argument("weights/config layer count mismatch");
}

Transformer
Transformer::randomInit(const ModelConfig &config, uint64_t seed,
                        const InitOptions &opts)
{
    return Transformer(config, ModelWeights::random(config, seed, opts));
}

Tensor
Transformer::projectQuery(int64_t layer, const Tensor &normed_x,
                          int64_t pos) const
{
    const LayerWeights &lw = weights_.layers.at(layer);
    Tensor q = ops::vecmat(normed_x, lw.wq)
                   .reshape({config_.q_heads, config_.head_dim});
    ops::applyRope(q, pos, config_.rope_theta, config_.yarn_scale);
    return q;
}

namespace {

/**
 * out[j] = sum_m c[m] * w(m, col0 + j) for j < n, in ascending m and
 * with no zero skip: the MLA value up-projection.
 */
void
upProject(const float *c, const Tensor &w, int64_t col0, int64_t n,
          float *out)
{
    std::fill(out, out + n, 0.0f);
    for (int64_t m = 0; m < w.dim(0); ++m) {
        const float cm = c[m];
        const float *wr = w.row(m) + col0;
        for (int64_t j = 0; j < n; ++j)
            out[j] += cm * wr[j];
    }
}

} // namespace

Tensor
Transformer::attentionLayer(int64_t layer, const Tensor &normed_x,
                            kv::KVCacheSet &cache, const Tensor &rope,
                            int64_t rope_pos0, const LayerSelector *selector,
                            StepTrace *trace) const
{
    const LayerWeights &lw = weights_.layers.at(layer);
    kv::LayerKVCache &lc = cache.layer(layer);
    const int64_t rows = normed_x.dim(0);
    const int64_t pos0 = lc.size();
    const int64_t end = pos0 + rows;
    const int64_t hd = config_.head_dim;
    const int64_t q_heads = config_.q_heads;
    const int64_t q_width = q_heads * hd;
    const bool mla = config_.attention == AttentionKind::MLA;
    const int64_t group = config_.groups();
    const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(hd));
    auto ropeAt = [&](int64_t p) { return rope.row(p - rope_pos0); };

    // --- Queries and KV of this chunk's tokens ----------------------
    Tensor q = ops::matmul(normed_x, lw.wq);
    for (int64_t r = 0; r < rows; ++r)
        ops::applyRope(q.row(r), q_heads, hd, ropeAt(pos0 + r));

    if (mla) {
        const Tensor c = ops::matmul(normed_x, lw.w_dkv);
        for (int64_t r = 0; r < rows; ++r)
            lc.append(c.row(r), nullptr);
    } else {
        Tensor k = ops::matmul(normed_x, lw.wk);
        const Tensor v = ops::matmul(normed_x, lw.wv);
        for (int64_t r = 0; r < rows; ++r) {
            ops::applyRope(k.row(r), config_.kv_heads, hd,
                           ropeAt(pos0 + r));
            lc.append(k.row(r), v.row(r));
        }
    }

    // --- Retrieval (per-layer for baselines, precomputed for ours) --
    LayerSelection sel;
    if (selector)
        sel = (*selector)(layer, q.reshape({q_heads, hd}));
    // Heads past the selection's list attend to everything.
    auto fullHead = [&](int64_t sel_head) {
        return static_cast<int64_t>(sel.per_head.size()) <= sel_head;
    };

    // MLA reconstructs K (all q heads, RoPE applied) once per attended
    // position, shared by every row and head: all of [0, end) when
    // some head attends fully, else the union of the selections.
    Tensor mla_k, mla_v;
    std::vector<int64_t> mla_slot;
    if (mla) {
        std::vector<int64_t> need;
        const bool any_full = fullHead(q_heads - 1);
        if (any_full) {
            need.resize(end);
            for (int64_t p = 0; p < end; ++p)
                need[p] = p;
        } else {
            for (const auto &list : sel.per_head)
                need.insert(need.end(), list.begin(), list.end());
            need.push_back(pos0);
            std::sort(need.begin(), need.end());
            need.erase(std::unique(need.begin(), need.end()), need.end());
        }
        const int64_t n_need = static_cast<int64_t>(need.size());
        const int64_t ld = config_.mla_latent_dim;
        Tensor latents({n_need, ld});
        mla_slot.assign(end, -1);
        for (int64_t i = 0; i < n_need; ++i) {
            std::copy(lc.latentAt(need[i]), lc.latentAt(need[i]) + ld,
                      latents.row(i));
            mla_slot[need[i]] = i;
        }
        mla_k = ops::matmul(latents, lw.w_uk);
        for (int64_t i = 0; i < n_need; ++i)
            ops::applyRope(mla_k.row(i), q_heads, hd, ropeAt(need[i]));
        if (any_full) {
            mla_v = Tensor({n_need, q_width});
            for (int64_t i = 0; i < n_need; ++i)
                upProject(latents.row(i), lw.w_uv, 0, q_width,
                          mla_v.row(i));
        }
    }

    // --- Per-row, per-head causal attention -------------------------
    Tensor out({rows, q_width});
    Tensor probs_trace;
    const bool record = trace && trace->record_attention;
    if (record)
        probs_trace = Tensor::zeros({q_heads, end});
    std::vector<float> scores(end);
    std::vector<int64_t> positions;
    std::vector<float> vh(hd);

    for (int64_t r = 0; r < rows; ++r) {
        const int64_t pos = pos0 + r;
        for (int64_t h = 0; h < q_heads; ++h) {
            const int64_t kvh = mla ? h : h / group;
            const int64_t sel_head = mla ? h : kvh;
            const float *qh = q.row(r) + h * hd;
            float *oh = out.row(r) + h * hd;

            if (fullHead(sel_head)) {
                const int64_t n = pos + 1;
                const float *keys =
                    mla ? mla_k.data() + h * hd : lc.keyAt(0, kvh);
                const int64_t k_stride = mla ? q_width : lc.kStride();
                ops::scaledScores(qh, keys, hd, k_stride, n, inv_sqrt_d,
                                  scores.data());
                ops::softmaxInPlace(scores.data(), n);
                const float *vals =
                    mla ? mla_v.data() + h * hd : lc.valueAt(0, kvh);
                const int64_t v_stride = mla ? q_width : lc.vStride();
                ops::weightedSum(scores.data(), vals, hd, v_stride, n, oh);
                if (record)
                    std::copy(scores.begin(), scores.begin() + n,
                              probs_trace.row(h));
                continue;
            }

            // Sparse: the selection plus the token's own KV.
            positions = sel.per_head[sel_head];
            if (positions.empty() || positions.back() != pos)
                positions.push_back(pos);
            const int64_t n = static_cast<int64_t>(positions.size());
            for (int64_t i = 0; i < n; ++i) {
                const int64_t p = positions[i];
                const float *kvec =
                    mla ? mla_k.row(mla_slot[p]) + h * hd
                        : lc.keyAt(p, kvh);
                scores[i] = ops::dot(qh, kvec, hd) * inv_sqrt_d;
            }
            ops::softmaxInPlace(scores.data(), n);
            for (int64_t i = 0; i < n; ++i) {
                const int64_t p = positions[i];
                const float *vvec = vh.data();
                if (mla)
                    upProject(lc.latentAt(p), lw.w_uv, h * hd, hd,
                              vh.data());
                else
                    vvec = lc.valueAt(p, kvh);
                for (int64_t d = 0; d < hd; ++d)
                    oh[d] += scores[i] * vvec[d];
                if (record)
                    probs_trace.at(h, p) = scores[i];
            }
        }
    }

    if (record)
        trace->attention.push_back(std::move(probs_trace));

    return ops::matmul(out, lw.wo);
}

Tensor
Transformer::ffnLayer(int64_t layer, const Tensor &normed_x) const
{
    const LayerWeights &lw = weights_.layers.at(layer);
    Tensor gate = ops::silu(ops::matmul(normed_x, lw.w_gate));
    Tensor up = ops::matmul(normed_x, lw.w_up);
    return ops::matmul(ops::mul(gate, up), lw.w_down);
}

Tensor
Transformer::forward(const int32_t *tokens, int64_t rows,
                     kv::KVCacheSet &cache, const LayerSelector *selector,
                     StepTrace *trace) const
{
    const int64_t pos0 = cache.sequenceLength();
    // MLA rotates the key of every cached position it attends to, so
    // its table starts at 0; the others rotate only the new tokens.
    const int64_t rope_pos0 =
        config_.attention == AttentionKind::MLA ? 0 : pos0;
    const Tensor rope =
        ops::ropeTable(rope_pos0, pos0 + rows - rope_pos0, config_.head_dim,
                       config_.rope_theta, config_.yarn_scale);

    Tensor h({rows, config_.hidden});
    for (int64_t r = 0; r < rows; ++r)
        std::copy(weights_.embedding.row(tokens[r]),
                  weights_.embedding.row(tokens[r]) + config_.hidden,
                  h.row(r));

    for (int64_t l = 0; l < config_.layers; ++l) {
        const LayerWeights &lw = weights_.layers[l];
        ops::addInPlace(h, attentionLayer(l, ops::rmsnorm(h, lw.attn_norm),
                                          cache, rope, rope_pos0, selector,
                                          trace));
        ops::addInPlace(h, ffnLayer(l, ops::rmsnorm(h, lw.ffn_norm)));
    }
    return h;
}

Tensor
Transformer::lmHead(const Tensor &h, StepTrace *trace) const
{
    Tensor last({config_.hidden});
    const float *row = h.row(h.dim(0) - 1);
    std::copy(row, row + config_.hidden, last.data());
    Tensor final_h = ops::rmsnorm(last, weights_.final_norm);
    if (trace)
        trace->final_hidden = final_h.clone();
    return ops::vecmat(final_h, weights_.lm_head);
}

Tensor
Transformer::decodeStep(int32_t token, kv::KVCacheSet &cache,
                        const LayerSelector *selector,
                        StepTrace *trace) const
{
    if (token < 0 || token >= config_.vocab)
        throw std::out_of_range("token id outside vocabulary");
    if (trace)
        trace->attention.clear();
    return lmHead(forward(&token, 1, cache, selector, trace), trace);
}

Tensor
Transformer::prefill(const std::vector<int32_t> &tokens,
                     kv::KVCacheSet &cache) const
{
    if (tokens.empty())
        throw std::invalid_argument("prefill with empty prompt");
    for (int32_t t : tokens) {
        if (t < 0 || t >= config_.vocab)
            throw std::out_of_range("token id outside vocabulary");
    }
    const int64_t n = static_cast<int64_t>(tokens.size());
    Tensor h;
    for (int64_t c0 = 0; c0 < n; c0 += kPrefillChunk)
        h = forward(tokens.data() + c0, std::min(kPrefillChunk, n - c0),
                    cache, nullptr, nullptr);
    return lmHead(h, nullptr);
}

int32_t
Transformer::greedy(const Tensor &logits) const
{
    return static_cast<int32_t>(ops::argmax(logits));
}

} // namespace model
} // namespace specontext
