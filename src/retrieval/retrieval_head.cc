#include "retrieval/retrieval_head.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"
#include "tensor/topk.h"

namespace specontext {
namespace retrieval {

RetrievalHead::RetrievalHead(const model::Transformer &dlm,
                             RetrievalHeadOptions opts)
    : dlm_(dlm), opts_(opts)
{
    if (dlm.config().layers != 1)
        throw std::invalid_argument("retrieval head expects a 1-layer DLM");
    if (opts_.budget <= 0)
        throw std::invalid_argument("retrieval budget must be positive");
}

void
RetrievalHead::reset()
{
    positions_ = 0;
    k_cache_.clear();
    last_weights_ = Tensor();
    score_flops_ = 0.0;
}

void
RetrievalHead::truncateTo(int64_t tokens)
{
    if (tokens >= positions_ || tokens < 0)
        return;
    const model::ModelConfig &cfg = dlm_.config();
    const int64_t key_heads =
        cfg.attention == model::AttentionKind::MLA ? cfg.q_heads
                                                   : cfg.kv_heads;
    k_cache_.resize(tokens * key_heads * cfg.head_dim);
    positions_ = tokens;
}

void
RetrievalHead::checkToken(int32_t token) const
{
    if (token < 0 || token >= dlm_.config().vocab)
        throw std::out_of_range("token id outside vocabulary");
}

Tensor
RetrievalHead::processToken(int32_t token)
{
    checkToken(token);
    const model::ModelConfig &cfg = dlm_.config();
    const model::ModelWeights &w = dlm_.weights();
    const model::LayerWeights &lw = w.layers[0];
    const bool mla = cfg.attention == model::AttentionKind::MLA;

    Tensor x({cfg.hidden});
    std::copy(w.embedding.row(token),
              w.embedding.row(token) + cfg.hidden, x.data());
    Tensor xn = ops::rmsnorm(x, lw.attn_norm);

    // Query of the current token.
    Tensor q = ops::vecmat(xn, lw.wq)
                   .reshape({cfg.q_heads, cfg.head_dim});
    ops::applyRope(q, positions_, cfg.rope_theta, cfg.yarn_scale);

    // Key: the head keeps a *full* K cache (no V — values are never
    // needed to rank importance, which is the pruning of Fig. 5(a)).
    Tensor k;
    if (mla) {
        Tensor c = ops::vecmat(xn, lw.w_dkv);
        k = ops::vecmat(c, lw.w_uk).reshape({cfg.q_heads, cfg.head_dim});
        ops::applyRope(k, positions_, cfg.rope_theta, cfg.yarn_scale);
    } else {
        k = ops::vecmat(xn, lw.wk).reshape({cfg.kv_heads, cfg.head_dim});
        ops::applyRope(k, positions_, cfg.rope_theta, cfg.yarn_scale);
    }
    k_cache_.insert(k_cache_.end(), k.data(), k.data() + k.numel());
    ++positions_;
    return q;
}

void
RetrievalHead::observe(int32_t token)
{
    (void)processToken(token);
}

void
RetrievalHead::observe(const std::vector<int32_t> &tokens)
{
    // Every id first, so a bad one leaves no earlier token's key behind.
    for (int32_t t : tokens)
        checkToken(t);
    for (int32_t t : tokens)
        observe(t);
}

Tensor
RetrievalHead::attentionWeights(const Tensor &q)
{
    const model::ModelConfig &cfg = dlm_.config();
    const bool mla = cfg.attention == model::AttentionKind::MLA;
    const int64_t hd = cfg.head_dim;
    const int64_t key_heads = mla ? cfg.q_heads : cfg.kv_heads;
    const int64_t group = cfg.q_heads / key_heads;
    const int64_t k_stride = key_heads * hd;
    const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(hd));

    Tensor weights({cfg.q_heads, positions_});
    for (int64_t h = 0; h < cfg.q_heads; ++h) {
        const int64_t kh = h / group;
        float *row = weights.row(h);
        ops::scaledScores(q.row(h), k_cache_.data() + kh * hd, hd,
                          k_stride, positions_, inv_sqrt_d, row);
        ops::softmaxInPlace(row, positions_);
    }
    score_flops_ +=
        2.0 * static_cast<double>(cfg.q_heads) * positions_ * hd;
    return weights;
}

model::LayerSelection
RetrievalHead::mapToSelection(const Tensor &weights) const
{
    const model::ModelConfig &cfg = dlm_.config();
    const int64_t n = weights.dim(1);
    const int64_t budget = std::min<int64_t>(opts_.budget, n);

    // Output head count: per KV head for MHA/GQA/MQA (MHA degenerates
    // to per-query-head because kv_heads == q_heads), per query head
    // for MLA.
    const bool mla = cfg.attention == model::AttentionKind::MLA;
    const int64_t out_heads = mla ? cfg.q_heads : cfg.kv_heads;
    const int64_t group = cfg.q_heads / out_heads;

    auto withWindow = [&](std::vector<int64_t> sel) {
        for (int64_t p = std::max<int64_t>(0, n - opts_.recent_window);
             p < n; ++p) {
            sel.push_back(p);
        }
        std::sort(sel.begin(), sel.end());
        sel.erase(std::unique(sel.begin(), sel.end()), sel.end());
        return sel;
    };

    model::LayerSelection out;
    if (opts_.level == RetrievalLevel::BatchLevel) {
        // Batch-level: max-reduce over every query head, one list.
        std::vector<float> agg(n, -std::numeric_limits<float>::max());
        for (int64_t h = 0; h < cfg.q_heads; ++h) {
            const float *row = weights.row(h);
            for (int64_t p = 0; p < n; ++p)
                agg[p] = std::max(agg[p], row[p]);
        }
        const auto sel = withWindow(topkIndices(agg, budget));
        out.per_head.assign(out_heads, sel);
        return out;
    }

    out.per_head.resize(out_heads);
    for (int64_t oh = 0; oh < out_heads; ++oh) {
        // Group-level element-wise max of the member query heads'
        // attention weights (Fig. 5(c)); group == 1 for MHA/MLA.
        std::vector<float> agg(n, -std::numeric_limits<float>::max());
        for (int64_t g = 0; g < group; ++g) {
            const float *row = weights.row(oh * group + g);
            for (int64_t p = 0; p < n; ++p)
                agg[p] = std::max(agg[p], row[p]);
        }
        out.per_head[oh] = withWindow(topkIndices(agg, budget));
    }
    return out;
}

model::LayerSelection
RetrievalHead::step(int32_t token)
{
    Tensor q = processToken(token);
    last_weights_ = attentionWeights(q);
    return mapToSelection(last_weights_);
}

int64_t
RetrievalHead::prunedParameterCount() const
{
    const model::ModelConfig &cfg = dlm_.config();
    const model::LayerWeights &lw = dlm_.weights().layers[0];
    int64_t params = lw.attn_norm.numel();
    params += lw.wq.numel();
    if (cfg.attention == model::AttentionKind::MLA)
        params += lw.w_dkv.numel() + lw.w_uk.numel();
    else
        params += lw.wk.numel();
    return params;
}

int64_t
RetrievalHead::dlmParameterCount() const
{
    return dlm_.config().parameterCount();
}

} // namespace retrieval
} // namespace specontext
