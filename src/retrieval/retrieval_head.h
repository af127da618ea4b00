/**
 * @file
 * SpeContext's lightweight retrieval head (paper Section 4).
 *
 * The head is the DLM pruned down to the operations needed to produce
 * attention weights: the embedding table, the input RMSNorm and the
 * Q/K projections of the DLM's single decoder layer (>90 % parameter
 * reduction relative to the full DLM, §4.3 / Fig. 5(a) "Pruned"). It
 * runs *before* the LLM on the same input token, maintains a full Key
 * cache of its own, computes head-level attention weights, and emits
 * one global Top-K selection per LLM KV head that the LLM reuses in
 * every layer — eliminating the layer-wise retrieve-and-load
 * serialization of the baseline paradigm.
 *
 * Mapping rules per attention mechanism (Fig. 5(b)-(e)):
 *  - MHA: per-head Top-K over the head's own attention weights;
 *  - GQA: element-wise max of the weights of the group's query heads,
 *    then group-level Top-K (one list per KV head);
 *  - MQA: all query heads max-reduce into the single KV head's list;
 *  - MLA: per-query-head Top-K; the selected latent c vectors are
 *    up-projected per head by the LLM.
 *
 * A batch-level mode (single list shared by all heads, Fig. 5(a))
 * exists for the head-level vs batch-level comparison.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "model/transformer.h"
#include "tensor/tensor.h"

namespace specontext {
namespace retrieval {

/** Selection granularity of the retrieval head (Fig. 5(a)). */
enum class RetrievalLevel {
    HeadLevel,  ///< distinct token set per (KV) head — the paper's choice
    BatchLevel, ///< single token set shared by all heads
};

/** Options of the retrieval head. */
struct RetrievalHeadOptions
{
    int64_t budget = 64;                     ///< tokens per head (B)
    RetrievalLevel level = RetrievalLevel::HeadLevel;
    /**
     * Tokens of local context always included besides Top-K. The paper
     * keeps raw Top-K; a small always-recent window is exposed for
     * ablation and defaults to 0.
     */
    int64_t recent_window = 0;
};

/**
 * Pruned-DLM retrieval head. Holds references into the DLM weights
 * (embedding, norm, W_q, W_k only) and its own growable K cache.
 */
class RetrievalHead
{
  public:
    /**
     * @param dlm the distilled model (1 layer) the head is pruned from
     * @param opts selection options
     */
    RetrievalHead(const model::Transformer &dlm,
                  RetrievalHeadOptions opts);

    const RetrievalHeadOptions &options() const { return opts_; }
    void setBudget(int64_t budget) { opts_.budget = budget; }

    /** Tokens currently in the head's K cache. */
    int64_t cachedTokens() const { return positions_; }

    /** Forget all cached keys (new sequence). */
    void reset();

    /**
     * Roll the K cache back to `tokens` entries (speculative-decoding
     * rollback of rejected drafts). No-op when already shorter.
     */
    void truncateTo(int64_t tokens);

    /**
     * Observe one token *without* producing a selection (prefill path:
     * the head still has to build its K cache over the prompt). An id
     * outside the vocabulary throws std::out_of_range before the K
     * cache changes, here, in the prompt overload and in step.
     */
    void observe(int32_t token);

    /** Observe a whole prompt; every id is checked before any is cached. */
    void observe(const std::vector<int32_t> &tokens);

    /**
     * Observe the next input token and return the global selection the
     * LLM should use for *all* layers when generating the next output:
     * one sorted position list per LLM KV head (per query head under
     * MHA/MLA). Positions index the LLM's KV cache, which by
     * construction is position-aligned with the head's own cache.
     */
    model::LayerSelection step(int32_t token);

    /**
     * Raw head-level attention weights of the last step
     * (q_heads x cached_tokens), before any group reduction — the
     * quantity Fig. 5(a) accumulates.
     */
    const Tensor &lastAttentionWeights() const { return last_weights_; }

    /**
     * Parameters the pruned head keeps: W_q + W_k + norm. The paper's
     * "~0.03B for an 8B model (~60 MB FP16)" counts exactly these; the
     * embedding table is shared with the LLM and not duplicated.
     */
    int64_t prunedParameterCount() const;

    /** Parameters of the full (unpruned) DLM, for the >90 % claim. */
    int64_t dlmParameterCount() const;

    /** Scoring multiply-accumulates spent so far (live accounting). */
    double scoreFlops() const { return score_flops_; }

  private:
    const model::Transformer &dlm_;
    RetrievalHeadOptions opts_;
    int64_t positions_ = 0;
    std::vector<float> k_cache_; ///< kv_heads-major per token
    Tensor last_weights_;
    double score_flops_ = 0.0;

    /** Throws std::out_of_range unless 0 <= token < vocab. */
    void checkToken(int32_t token) const;

    /** Embed + norm + QK project + rope; appends K, returns Q. */
    Tensor processToken(int32_t token);

    /** Head-level weights (q_heads x positions_) for query q. */
    Tensor attentionWeights(const Tensor &q);

    model::LayerSelection mapToSelection(const Tensor &weights) const;
};

} // namespace retrieval
} // namespace specontext
