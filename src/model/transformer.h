/**
 * @file
 * Synthetic transformer decoder with prefill and autoregressive decode,
 * KV caching, and pluggable per-layer sparse attention.
 *
 * The sparse-attention hook is the seam every system in the paper plugs
 * into: baselines (Quest, ClusterKV, ShadowKV) pass a LayerSelector that
 * performs query-aware retrieval *inside* each layer (the serialized
 * dataflow of Fig. 2(a)), while SpeContext passes a selector that simply
 * returns the retrieval head's precomputed global selection (eliminating
 * the layer-wise data dependency, §5.1).
 */
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "kvcache/kv_cache.h"
#include "model/config.h"
#include "model/weights.h"
#include "tensor/tensor.h"

namespace specontext {
namespace model {

/**
 * Sparse KV selection for one layer: one sorted list of attended cache
 * positions per KV head (per query head for MHA/MLA). An empty
 * `per_head` means full attention for this layer. The token being
 * generated always attends to its own freshly appended KV in addition
 * to the listed positions.
 */
struct LayerSelection
{
    std::vector<std::vector<int64_t>> per_head;

    bool full() const { return per_head.empty(); }

    /** Full-attention selection. */
    static LayerSelection fullAttention() { return {}; }
};

/**
 * Per-layer retrieval callback. Arguments: layer index and the
 * RoPE-rotated query tensor (q_heads x head_dim) of the current token.
 * Cache positions [0, ctx) are selectable where ctx is the number of
 * previously cached tokens.
 */
using LayerSelector =
    std::function<LayerSelection(int64_t layer, const Tensor &q)>;

/** Optional per-step instrumentation. */
struct StepTrace
{
    /** When true, per-layer attention probabilities are recorded. */
    bool record_attention = false;
    /**
     * attention[l] is (q_heads x ctx+1): softmax probabilities of the
     * generated token over all cache positions (sparse runs scatter
     * their probabilities into the selected slots, zero elsewhere).
     */
    std::vector<Tensor> attention;
    /** Hidden state entering the LM head (after final norm). */
    Tensor final_hidden;
};

/** Decoder-only transformer over a KVCacheSet. */
class Transformer
{
  public:
    Transformer(ModelConfig config, ModelWeights weights);

    /** Convenience: config + fresh random weights from seed. */
    static Transformer randomInit(const ModelConfig &config, uint64_t seed,
                                  const InitOptions &opts = InitOptions());

    const ModelConfig &config() const { return config_; }
    const ModelWeights &weights() const { return weights_; }

    /** Prompt tokens that prefill runs through each layer at once. */
    static constexpr int64_t kPrefillChunk = 64;

    /**
     * Full-attention prefill: append every token's KV to the cache and
     * return the logits of the last token. The prompt goes through in
     * chunks of kPrefillChunk tokens, each layer once per chunk; the
     * logits and every cached float are bit-identical to a decodeStep
     * per token. Continues from cache.sequenceLength(). Every id is
     * checked before the cache is touched (std::out_of_range).
     */
    Tensor prefill(const std::vector<int32_t> &tokens,
                   kv::KVCacheSet &cache) const;

    /**
     * One decode step: appends the token's KV to every layer and
     * returns next-token logits. selector==nullptr means full
     * attention.
     */
    Tensor decodeStep(int32_t token, kv::KVCacheSet &cache,
                      const LayerSelector *selector = nullptr,
                      StepTrace *trace = nullptr) const;

    /** Greedy argmax over logits. */
    int32_t greedy(const Tensor &logits) const;

    /**
     * Current token's RoPE-rotated queries/keys of one layer given the
     * layer input (used by retrievers that need raw Q). Returns
     * (q_heads x head_dim).
     */
    Tensor projectQuery(int64_t layer, const Tensor &normed_x,
                        int64_t pos) const;

  private:
    ModelConfig config_;
    ModelWeights weights_;

    /**
     * Runs `rows` consecutive tokens through every layer, appending
     * their KV, and returns the hidden states (rows x hidden) before the
     * final norm. selector and trace apply to single-token calls only.
     */
    Tensor forward(const int32_t *tokens, int64_t rows,
                   kv::KVCacheSet &cache, const LayerSelector *selector,
                   StepTrace *trace) const;

    /**
     * Causal attention of one layer for the rows of normed_x, which sit
     * at the end of the cache once their KV is appended; returns the
     * output projection (rows x hidden). rope holds the rotations of
     * positions from rope_pos0 on.
     */
    Tensor attentionLayer(int64_t layer, const Tensor &normed_x,
                          kv::KVCacheSet &cache, const Tensor &rope,
                          int64_t rope_pos0, const LayerSelector *selector,
                          StepTrace *trace) const;

    Tensor ffnLayer(int64_t layer, const Tensor &normed_x) const;

    /** Final norm and LM head of the last row of h. */
    Tensor lmHead(const Tensor &h, StepTrace *trace) const;
};

} // namespace model
} // namespace specontext
