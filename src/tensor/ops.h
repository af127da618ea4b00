/**
 * @file
 * Kernel-level operations over Tensor: GEMM, softmax, normalization, RoPE,
 * activation functions and reductions. These are the CPU stand-ins for the
 * GPU kernels the paper's systems dispatch; the sim/ module prices them.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace specontext {
namespace ops {

/**
 * C = A(mxk) * B(kxn). Shapes are validated. Column j of row i sums
 * a(i, p) * b(p, j) in ascending p, a multiply then an add, starting
 * from zero and skipping every p where a(i, p) == 0.
 */
Tensor matmul(const Tensor &a, const Tensor &b);

/** C = A(mxk) * B^T where B is (nxk). Avoids materializing transposes. */
Tensor matmulTransposedB(const Tensor &a, const Tensor &b);

/** y = W(mxk) * x(k). */
Tensor matvec(const Tensor &w, const Tensor &x);

/**
 * y(k) = x(m) * W(mxk): row-vector times matrix, used for projections.
 * A one-row matmul, so y equals that row of matmul bit for bit.
 */
Tensor vecmat(const Tensor &x, const Tensor &w);

/** In-place softmax over the last dimension. */
void softmaxLastDim(Tensor &t);

/** Numerically stable softmax of a raw buffer of length n, in place. */
void softmaxInPlace(float *v, int64_t n);

/**
 * RMSNorm with learned gain, eps 1e-5: of x itself when x is rank 1, of
 * each row when x is rank 2. gain has the length of one row.
 */
Tensor rmsnorm(const Tensor &x, const Tensor &gain);

/** SiLU (x * sigmoid(x)) elementwise, returns new tensor. */
Tensor silu(const Tensor &x);

/** Elementwise a + b. */
Tensor add(const Tensor &a, const Tensor &b);

/** Elementwise a * b. */
Tensor mul(const Tensor &a, const Tensor &b);

/** In-place a += b. */
void addInPlace(Tensor &a, const Tensor &b);

/** Dot product of two equal-length rank-1 buffers. */
float dot(const float *a, const float *b, int64_t n);

/**
 * Attention scores of one query against n keys spaced stride floats
 * apart: out[i] = dot(q, keys + i * stride, dim) * scale, bit for bit.
 * Several keys are summed side by side, each still in ascending d, so
 * their add chains overlap instead of running one after another.
 */
void scaledScores(const float *q, const float *keys, int64_t dim,
                  int64_t stride, int64_t n, float scale, float *out);

/**
 * Probability-weighted sum of n rows spaced stride floats apart:
 * out[d] = sum_i w[i] * rows[i * stride + d] for d < dim, added in
 * ascending i starting from zero (the order of a `+=` loop over i).
 */
void weightedSum(const float *w, const float *rows, int64_t dim,
                 int64_t stride, int64_t n, float *out);

/**
 * The kernels behind matmul, scaledScores and weightedSum, one set per
 * instruction set. Every set runs the same sequence of IEEE operations
 * per output float, so all sets give the same bits. The functions above
 * use the AVX2 set when the CPU has AVX2 (checked once per process) and
 * the portable set otherwise; tests call each set directly.
 */
struct KernelSet
{
    /** c(m x n) = a(m x k) * b(k x n), row-major, c overwritten. */
    void (*matmul)(const float *a, const float *b, int64_t m, int64_t k,
                   int64_t n, float *c);
    void (*scaledScores)(const float *q, const float *keys, int64_t dim,
                         int64_t stride, int64_t n, float scale,
                         float *out);
    void (*weightedSum)(const float *w, const float *rows, int64_t dim,
                        int64_t stride, int64_t n, float *out);
};

/** Plain C++ loops (SSE2 scores on x86-64); runs on every CPU. */
const KernelSet &portableKernels();

/** Explicit AVX2 kernels, or nullptr where the CPU lacks AVX2. */
const KernelSet *avx2Kernels();

/**
 * Apply rotary position embedding in place to a (heads x head_dim) tensor
 * for absolute position pos. head_dim must be even. theta_base follows
 * Llama (10000). yarn_scale > 1 applies YaRN-style positional
 * interpolation (position divided by the scale), the training-free
 * context extension the paper uses for the DLM (Section 4.3).
 */
void applyRope(Tensor &qk, int64_t pos, float theta_base = 10000.0f,
               float yarn_scale = 1.0f);

/**
 * RoPE rotations of positions [pos0, pos0 + n): an (n x head_dim) tensor
 * whose row r holds the (cos, sin) pair of every frequency of position
 * pos0 + r, evaluated in double and rounded to float. applyRope rotates
 * by these rows, and one row serves every head of its position.
 */
Tensor ropeTable(int64_t pos0, int64_t n, int64_t head_dim,
                 float theta_base = 10000.0f, float yarn_scale = 1.0f);

/** Rotate `heads` consecutive head_dim vectors at x by one ropeTable row. */
void applyRope(float *x, int64_t heads, int64_t head_dim,
               const float *cos_sin);

/** Index of the maximum element of a rank-1 tensor. */
int64_t argmax(const Tensor &t);

/** Mean of all elements. */
float mean(const Tensor &t);

/** Cosine similarity between two equal-length rank-1 tensors. */
float cosineSimilarity(const Tensor &a, const Tensor &b);

/**
 * KL divergence D(p || q) between two softmax-normalized logit vectors.
 * Inputs are raw logits; the function normalizes internally.
 */
float klDivergenceFromLogits(const Tensor &p_logits, const Tensor &q_logits);

} // namespace ops
} // namespace specontext
