#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#if defined(__SSE2__)
#include <xmmintrin.h>
#endif

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define SPECONTEXT_AVX2_KERNELS 1
#else
#define SPECONTEXT_AVX2_KERNELS 0
#endif

namespace specontext {
namespace ops {

namespace {

// ------------------------------------------------------------ portable

void
matmulPortable(const float *a, const float *b, int64_t m, int64_t k,
               int64_t n, float *c)
{
    std::fill(c, c + m * n, 0.0f);
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t p = 0; p < k; ++p) {
            const float av = a[i * k + p];
            if (av == 0.0f)
                continue;
            const float *brow = b + p * n;
            float *crow = c + i * n;
            for (int64_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

void
scaledScoresPortable(const float *q, const float *keys, int64_t dim,
                     int64_t stride, int64_t n, float scale, float *out)
{
    int64_t i = 0;
#if defined(__SSE2__)
    // Eight keys at a time, lane j of a register holding key j. Each
    // 4x4 tile of keys is transposed so that one add steps every lane
    // by the same d: lanes never mix, so every sum keeps dot's order.
    // Other targets, and the last n % 8 keys, take the dot loop below.
    const int64_t dim4 = dim - dim % 4;
    const __m128 vscale = _mm_set1_ps(scale);
    for (; i + 8 <= n; i += 8) {
        const float *k0 = keys + i * stride;
        const float *k4 = k0 + 4 * stride;
        __m128 acc0 = _mm_setzero_ps();
        __m128 acc1 = _mm_setzero_ps();
        auto step = [](__m128 acc, const float *qd, __m128 t0, __m128 t1,
                       __m128 t2, __m128 t3) {
            acc = _mm_add_ps(acc, _mm_mul_ps(_mm_set1_ps(qd[0]), t0));
            acc = _mm_add_ps(acc, _mm_mul_ps(_mm_set1_ps(qd[1]), t1));
            acc = _mm_add_ps(acc, _mm_mul_ps(_mm_set1_ps(qd[2]), t2));
            return _mm_add_ps(acc, _mm_mul_ps(_mm_set1_ps(qd[3]), t3));
        };
        for (int64_t d = 0; d < dim4; d += 4) {
            __m128 a0 = _mm_loadu_ps(k0 + d);
            __m128 a1 = _mm_loadu_ps(k0 + stride + d);
            __m128 a2 = _mm_loadu_ps(k0 + 2 * stride + d);
            __m128 a3 = _mm_loadu_ps(k0 + 3 * stride + d);
            _MM_TRANSPOSE4_PS(a0, a1, a2, a3);
            acc0 = step(acc0, q + d, a0, a1, a2, a3);
            __m128 b0 = _mm_loadu_ps(k4 + d);
            __m128 b1 = _mm_loadu_ps(k4 + stride + d);
            __m128 b2 = _mm_loadu_ps(k4 + 2 * stride + d);
            __m128 b3 = _mm_loadu_ps(k4 + 3 * stride + d);
            _MM_TRANSPOSE4_PS(b0, b1, b2, b3);
            acc1 = step(acc1, q + d, b0, b1, b2, b3);
        }
        for (int64_t d = dim4; d < dim; ++d) {
            const __m128 qd = _mm_set1_ps(q[d]);
            acc0 = _mm_add_ps(
                acc0, _mm_mul_ps(qd, _mm_setr_ps(k0[d], k0[stride + d],
                                                 k0[2 * stride + d],
                                                 k0[3 * stride + d])));
            acc1 = _mm_add_ps(
                acc1, _mm_mul_ps(qd, _mm_setr_ps(k4[d], k4[stride + d],
                                                 k4[2 * stride + d],
                                                 k4[3 * stride + d])));
        }
        _mm_storeu_ps(out + i, _mm_mul_ps(acc0, vscale));
        _mm_storeu_ps(out + i + 4, _mm_mul_ps(acc1, vscale));
    }
#endif
    for (; i < n; ++i)
        out[i] = dot(q, keys + i * stride, dim) * scale;
}

void
weightedSumPortable(const float *w, const float *rows, int64_t dim,
                    int64_t stride, int64_t n, float *out)
{
    // Sixteen output floats live in local accumulators across the whole
    // i loop instead of being loaded and stored once per row.
    constexpr int64_t kBlock = 16;
    for (int64_t d0 = 0; d0 < dim; d0 += kBlock) {
        const int64_t m = std::min(kBlock, dim - d0);
        float acc[kBlock] = {};
        if (m == kBlock) {
            for (int64_t i = 0; i < n; ++i) {
                const float wi = w[i];
                const float *r = rows + i * stride + d0;
                for (int64_t d = 0; d < kBlock; ++d)
                    acc[d] += wi * r[d];
            }
        } else {
            for (int64_t i = 0; i < n; ++i) {
                const float wi = w[i];
                const float *r = rows + i * stride + d0;
                for (int64_t d = 0; d < m; ++d)
                    acc[d] += wi * r[d];
            }
        }
        std::copy(acc, acc + m, out + d0);
    }
}

const KernelSet kPortable{matmulPortable, scaledScoresPortable,
                          weightedSumPortable};

// ---------------------------------------------------------------- AVX2
//
// Lane l of every register holds one output float and only ever meets
// lane l of another, through a separate multiply and add, in the order
// the portable loop uses. The target names avx2 alone, without fma:
// given fma, GCC 12 fuses _mm256_mul_ps + _mm256_add_ps into one
// vfmadd, which rounds once instead of twice and changes the bits.

#if SPECONTEXT_AVX2_KERNELS
#define SPECONTEXT_AVX2 __attribute__((target("avx2")))

/** Lane l is all ones when l < live (live may be <= 0 or >= 8). */
SPECONTEXT_AVX2 inline __m256i
laneMask(int64_t live)
{
    const __m256i idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const int32_t l = static_cast<int32_t>(std::clamp<int64_t>(live, 0, 8));
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(l), idx);
}

/**
 * Rows [0, R) x columns [0, 8V) of c, summed in registers over all of
 * k. With kSkipZeros, row r skips every p where a(r, p) == 0, as
 * matmulPortable does; a block of a that holds no zero runs without the
 * test, which would otherwise cost a third of the time. A tail tile
 * (kTail, V == 2) reads and writes only the columns `lo`/`hi` select.
 */
template <int R, int V, bool kSkipZeros, bool kTail>
SPECONTEXT_AVX2 inline void
matmulTileAvx2(const float *a, const float *b, int64_t k, int64_t n,
               float *c, __m256i lo, __m256i hi)
{
    static_assert(!kTail || V == 2, "a tail tile is sixteen wide");
    __m256 acc[R][V];
    for (int r = 0; r < R; ++r)
        for (int v = 0; v < V; ++v)
            acc[r][v] = _mm256_setzero_ps();
    for (int64_t p = 0; p < k; ++p) {
        const float *bp = b + p * n;
        __m256 bv[V];
        for (int v = 0; v < V; ++v)
            bv[v] = kTail ? _mm256_maskload_ps(bp + 8 * v, v ? hi : lo)
                          : _mm256_loadu_ps(bp + 8 * v);
        for (int r = 0; r < R; ++r) {
            if (kSkipZeros && a[r * k + p] == 0.0f)
                continue;
            const __m256 av = _mm256_broadcast_ss(a + r * k + p);
            for (int v = 0; v < V; ++v)
                acc[r][v] =
                    _mm256_add_ps(acc[r][v], _mm256_mul_ps(av, bv[v]));
        }
    }
    for (int r = 0; r < R; ++r) {
        for (int v = 0; v < V; ++v) {
            float *cr = c + r * n + 8 * v;
            if (kTail)
                _mm256_maskstore_ps(cr, v ? hi : lo, acc[r][v]);
            else
                _mm256_storeu_ps(cr, acc[r][v]);
        }
    }
}

/**
 * Rows [0, R) of c, tile by tile across the columns. About eight
 * accumulators keep both vector adders busy; four rows share each
 * load of b, and a lone row takes 64 columns at once instead.
 */
template <int R, bool kSkipZeros>
SPECONTEXT_AVX2 void
matmulPanelsAvx2(const float *a, const float *b, int64_t k, int64_t n,
                 float *c)
{
    constexpr int V = R == 3 ? 2 : 8 / R;
    const __m256i all = _mm256_set1_epi32(-1);
    int64_t j = 0;
    for (; j + 8 * V <= n; j += 8 * V)
        matmulTileAvx2<R, V, kSkipZeros, false>(a, b + j, k, n, c + j, all,
                                                all);
    for (; j + 16 <= n; j += 16)
        matmulTileAvx2<R, 2, kSkipZeros, false>(a, b + j, k, n, c + j, all,
                                                all);
    if (j < n)
        matmulTileAvx2<R, 2, kSkipZeros, true>(
            a, b + j, k, n, c + j, laneMask(n - j), laneMask(n - j - 8));
}

template <int R>
SPECONTEXT_AVX2 void
matmulRowsAvx2(const float *a, const float *b, int64_t k, int64_t n,
               float *c)
{
    if (std::find(a, a + R * k, 0.0f) != a + R * k)
        matmulPanelsAvx2<R, true>(a, b, k, n, c);
    else
        matmulPanelsAvx2<R, false>(a, b, k, n, c);
}

SPECONTEXT_AVX2 void
matmulAvx2(const float *a, const float *b, int64_t m, int64_t k, int64_t n,
           float *c)
{
    int64_t i = 0;
    for (; i + 4 <= m; i += 4)
        matmulRowsAvx2<4>(a + i * k, b, k, n, c + i * n);
    switch (m - i) {
    case 3:
        matmulRowsAvx2<3>(a + i * k, b, k, n, c + i * n);
        break;
    case 2:
        matmulRowsAvx2<2>(a + i * k, b, k, n, c + i * n);
        break;
    case 1:
        matmulRowsAvx2<1>(a + i * k, b, k, n, c + i * n);
        break;
    default:
        break;
    }
}

/**
 * Add d = d0 .. d0+3 of eight keys to acc, lane j holding key j. Lanes
 * 0-3 load keys 0-3 and lanes 4-7 keys 4-7, so one in-lane 4x4
 * transpose leaves d0 + x of every key in register x.
 */
SPECONTEXT_AVX2 inline __m256
scoreQuadAvx2(__m256 acc, const float *q, const float *k0, int64_t stride,
              int64_t d0)
{
    const float *k4 = k0 + 4 * stride;
    __m256 r[4];
    for (int j = 0; j < 4; ++j)
        r[j] = _mm256_insertf128_ps(
            _mm256_castps128_ps256(_mm_loadu_ps(k0 + j * stride + d0)),
            _mm_loadu_ps(k4 + j * stride + d0), 1);
    const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
    const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
    const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
    const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
    const __m256 col[4] = {_mm256_shuffle_ps(t0, t2, 0x44),
                           _mm256_shuffle_ps(t0, t2, 0xEE),
                           _mm256_shuffle_ps(t1, t3, 0x44),
                           _mm256_shuffle_ps(t1, t3, 0xEE)};
    for (int x = 0; x < 4; ++x)
        acc = _mm256_add_ps(
            acc, _mm256_mul_ps(_mm256_broadcast_ss(q + d0 + x), col[x]));
    return acc;
}

/** dot(q, key j) of eight keys spaced stride apart, in lane j. */
SPECONTEXT_AVX2 inline __m256
scoreOctetAvx2(const float *q, const float *k0, int64_t dim, int64_t stride)
{
    __m256 acc = _mm256_setzero_ps();
    const int64_t dim4 = dim - dim % 4;
    for (int64_t d = 0; d < dim4; d += 4)
        acc = scoreQuadAvx2(acc, q, k0, stride, d);
    for (int64_t d = dim4; d < dim; ++d) {
        const float *kd = k0 + d;
        acc = _mm256_add_ps(
            acc, _mm256_mul_ps(
                     _mm256_broadcast_ss(q + d),
                     _mm256_setr_ps(kd[0], kd[stride], kd[2 * stride],
                                    kd[3 * stride], kd[4 * stride],
                                    kd[5 * stride], kd[6 * stride],
                                    kd[7 * stride])));
    }
    return acc;
}

/**
 * Sixteen keys per step as two independent octets, so two add chains
 * overlap; the last n % 8 keys take dot, like the portable kernel.
 */
SPECONTEXT_AVX2 void
scaledScoresAvx2(const float *q, const float *keys, int64_t dim,
                 int64_t stride, int64_t n, float scale, float *out)
{
    const __m256 vscale = _mm256_set1_ps(scale);
    int64_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const float *k0 = keys + i * stride;
        const __m256 s0 = scoreOctetAvx2(q, k0, dim, stride);
        const __m256 s1 = scoreOctetAvx2(q, k0 + 8 * stride, dim, stride);
        _mm256_storeu_ps(out + i, _mm256_mul_ps(s0, vscale));
        _mm256_storeu_ps(out + i + 8, _mm256_mul_ps(s1, vscale));
    }
    if (i + 8 <= n) {
        const __m256 s = scoreOctetAvx2(q, keys + i * stride, dim, stride);
        _mm256_storeu_ps(out + i, _mm256_mul_ps(s, vscale));
        i += 8;
    }
    for (; i < n; ++i)
        out[i] = dot(q, keys + i * stride, dim) * scale;
}

/**
 * Eight floats at p as two 16-byte halves: value rows are only 16-byte
 * aligned, and one 32-byte load at such an address straddles every
 * other cache line (1.4x slower than the portable loop).
 */
SPECONTEXT_AVX2 inline __m256
load8HalvesAvx2(const float *p)
{
    return _mm256_insertf128_ps(_mm256_castps128_ps256(_mm_loadu_ps(p)),
                                _mm_loadu_ps(p + 4), 1);
}

/**
 * Sixteen output floats per pass over the rows in two registers, then
 * eight, then a masked tail; each lane adds w[i] * row i in ascending i.
 */
SPECONTEXT_AVX2 void
weightedSumAvx2(const float *w, const float *rows, int64_t dim,
                int64_t stride, int64_t n, float *out)
{
    int64_t d0 = 0;
    for (; d0 + 16 <= dim; d0 += 16) {
        __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
        for (int64_t i = 0; i < n; ++i) {
            const __m256 wi = _mm256_broadcast_ss(w + i);
            const float *r = rows + i * stride + d0;
            acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(wi, load8HalvesAvx2(r)));
            acc1 = _mm256_add_ps(acc1,
                                 _mm256_mul_ps(wi, load8HalvesAvx2(r + 8)));
        }
        _mm256_storeu_ps(out + d0, acc0);
        _mm256_storeu_ps(out + d0 + 8, acc1);
    }
    for (; d0 < dim; d0 += 8) {
        const __m256i live = laneMask(dim - d0);
        __m256 acc = _mm256_setzero_ps();
        for (int64_t i = 0; i < n; ++i)
            acc = _mm256_add_ps(
                acc, _mm256_mul_ps(_mm256_broadcast_ss(w + i),
                                   _mm256_maskload_ps(
                                       rows + i * stride + d0, live)));
        _mm256_maskstore_ps(out + d0, live, acc);
    }
}

#undef SPECONTEXT_AVX2

const KernelSet kAvx2{matmulAvx2, scaledScoresAvx2, weightedSumAvx2};
#endif // SPECONTEXT_AVX2_KERNELS

/** The set the public kernels run, chosen on first use. */
const KernelSet &
activeKernels()
{
    static const KernelSet &set =
        avx2Kernels() ? *avx2Kernels() : portableKernels();
    return set;
}

} // namespace

const KernelSet &
portableKernels()
{
    return kPortable;
}

const KernelSet *
avx2Kernels()
{
#if SPECONTEXT_AVX2_KERNELS
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        return &kAvx2;
#endif
    return nullptr;
}

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    if (a.ndim() != 2 || b.ndim() != 2 || a.dim(1) != b.dim(0))
        throw std::invalid_argument("matmul shape mismatch");
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    Tensor c({m, n});
    activeKernels().matmul(a.data(), b.data(), m, k, n, c.data());
    return c;
}

Tensor
matmulTransposedB(const Tensor &a, const Tensor &b)
{
    if (a.ndim() != 2 || b.ndim() != 2 || a.dim(1) != b.dim(1))
        throw std::invalid_argument("matmulTransposedB shape mismatch");
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
    Tensor c({m, n});
    for (int64_t i = 0; i < m; ++i) {
        const float *arow = a.data() + i * k;
        float *crow = c.data() + i * n;
        for (int64_t j = 0; j < n; ++j)
            crow[j] = dot(arow, b.data() + j * k, k);
    }
    return c;
}

Tensor
matvec(const Tensor &w, const Tensor &x)
{
    if (w.ndim() != 2 || x.ndim() != 1 || w.dim(1) != x.dim(0))
        throw std::invalid_argument("matvec shape mismatch");
    const int64_t m = w.dim(0), k = w.dim(1);
    Tensor y({m});
    for (int64_t i = 0; i < m; ++i)
        y.at(i) = dot(w.data() + i * k, x.data(), k);
    return y;
}

Tensor
vecmat(const Tensor &x, const Tensor &w)
{
    if (x.ndim() != 1 || w.ndim() != 2 || x.dim(0) != w.dim(0))
        throw std::invalid_argument("vecmat shape mismatch");
    const int64_t m = w.dim(0), n = w.dim(1);
    Tensor y({n});
    activeKernels().matmul(x.data(), w.data(), 1, m, n, y.data());
    return y;
}

void
softmaxInPlace(float *v, int64_t n)
{
    if (n <= 0)
        return;
    float mx = v[0];
    for (int64_t i = 1; i < n; ++i)
        mx = std::max(mx, v[i]);
    double sum = 0.0;
    for (int64_t i = 0; i < n; ++i) {
        v[i] = std::exp(v[i] - mx);
        sum += v[i];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (int64_t i = 0; i < n; ++i)
        v[i] *= inv;
}

void
softmaxLastDim(Tensor &t)
{
    if (t.ndim() == 0 || t.numel() == 0)
        return;
    const int64_t last = t.dim(t.ndim() - 1);
    const int64_t rows = t.numel() / last;
    for (int64_t r = 0; r < rows; ++r)
        softmaxInPlace(t.data() + r * last, last);
}

Tensor
rmsnorm(const Tensor &x, const Tensor &gain)
{
    if (x.ndim() < 1 || x.ndim() > 2 || gain.ndim() != 1 ||
        x.dim(x.ndim() - 1) != gain.dim(0))
        throw std::invalid_argument("rmsnorm shape mismatch");
    const int64_t n = gain.dim(0);
    const int64_t rows = x.ndim() == 2 ? x.dim(0) : 1;
    Tensor y(x.shape());
    for (int64_t r = 0; r < rows; ++r) {
        const float *px = x.data() + r * n;
        float *py = y.data() + r * n;
        double ss = 0.0;
        for (int64_t i = 0; i < n; ++i)
            ss += static_cast<double>(px[i]) * px[i];
        const float inv = static_cast<float>(
            1.0 / std::sqrt(ss / static_cast<double>(n) + 1e-5));
        for (int64_t i = 0; i < n; ++i)
            py[i] = px[i] * inv * gain.data()[i];
    }
    return y;
}

Tensor
silu(const Tensor &x)
{
    Tensor y(x.shape());
    const float *px = x.data();
    float *py = y.data();
    for (int64_t i = 0; i < x.numel(); ++i)
        py[i] = px[i] / (1.0f + std::exp(-px[i]));
    return y;
}

Tensor
add(const Tensor &a, const Tensor &b)
{
    if (a.numel() != b.numel())
        throw std::invalid_argument("add size mismatch");
    Tensor c = a.clone();
    addInPlace(c, b);
    return c;
}

Tensor
mul(const Tensor &a, const Tensor &b)
{
    if (a.numel() != b.numel())
        throw std::invalid_argument("mul size mismatch");
    Tensor c(a.shape());
    for (int64_t i = 0; i < a.numel(); ++i)
        c.data()[i] = a.data()[i] * b.data()[i];
    return c;
}

void
addInPlace(Tensor &a, const Tensor &b)
{
    if (a.numel() != b.numel())
        throw std::invalid_argument("addInPlace size mismatch");
    float *pa = a.data();
    const float *pb = b.data();
    for (int64_t i = 0; i < a.numel(); ++i)
        pa[i] += pb[i];
}

float
dot(const float *a, const float *b, int64_t n)
{
    float s = 0.0f;
    for (int64_t i = 0; i < n; ++i)
        s += a[i] * b[i];
    return s;
}

void
scaledScores(const float *q, const float *keys, int64_t dim,
             int64_t stride, int64_t n, float scale, float *out)
{
    activeKernels().scaledScores(q, keys, dim, stride, n, scale, out);
}

void
weightedSum(const float *w, const float *rows, int64_t dim, int64_t stride,
            int64_t n, float *out)
{
    activeKernels().weightedSum(w, rows, dim, stride, n, out);
}

void
applyRope(Tensor &qk, int64_t pos, float theta_base, float yarn_scale)
{
    if (qk.ndim() != 2)
        throw std::invalid_argument("applyRope expects (heads, head_dim)");
    const int64_t hd = qk.dim(1);
    const Tensor cs = ropeTable(pos, 1, hd, theta_base, yarn_scale);
    applyRope(qk.data(), qk.dim(0), hd, cs.data());
}

Tensor
ropeTable(int64_t pos0, int64_t n, int64_t head_dim, float theta_base,
          float yarn_scale)
{
    if (head_dim % 2 != 0)
        throw std::invalid_argument("applyRope head_dim must be even");
    const int64_t half = head_dim / 2;
    std::vector<double> freq(half);
    for (int64_t i = 0; i < half; ++i)
        freq[i] = std::pow(static_cast<double>(theta_base),
                           -2.0 * static_cast<double>(i) /
                               static_cast<double>(head_dim));
    Tensor t({n, head_dim});
    for (int64_t r = 0; r < n; ++r) {
        const double p = static_cast<double>(pos0 + r) / yarn_scale;
        float *cs = t.row(r);
        for (int64_t i = 0; i < half; ++i) {
            const double ang = p * freq[i];
            cs[2 * i] = static_cast<float>(std::cos(ang));
            cs[2 * i + 1] = static_cast<float>(std::sin(ang));
        }
    }
    return t;
}

void
applyRope(float *x, int64_t heads, int64_t head_dim, const float *cos_sin)
{
    for (int64_t h = 0; h < heads; ++h) {
        float *v = x + h * head_dim;
        for (int64_t i = 0; i < head_dim / 2; ++i) {
            const float c = cos_sin[2 * i];
            const float s = cos_sin[2 * i + 1];
            const float x0 = v[2 * i];
            const float x1 = v[2 * i + 1];
            v[2 * i] = x0 * c - x1 * s;
            v[2 * i + 1] = x0 * s + x1 * c;
        }
    }
}

int64_t
argmax(const Tensor &t)
{
    if (t.numel() == 0)
        throw std::invalid_argument("argmax of empty tensor");
    const float *p = t.data();
    int64_t best = 0;
    for (int64_t i = 1; i < t.numel(); ++i) {
        if (p[i] > p[best])
            best = i;
    }
    return best;
}

float
mean(const Tensor &t)
{
    if (t.numel() == 0)
        return 0.0f;
    double s = 0.0;
    for (int64_t i = 0; i < t.numel(); ++i)
        s += t.data()[i];
    return static_cast<float>(s / static_cast<double>(t.numel()));
}

float
cosineSimilarity(const Tensor &a, const Tensor &b)
{
    if (a.numel() != b.numel() || a.numel() == 0)
        throw std::invalid_argument("cosineSimilarity size mismatch");
    const float d = dot(a.data(), b.data(), a.numel());
    const float na = std::sqrt(dot(a.data(), a.data(), a.numel()));
    const float nb = std::sqrt(dot(b.data(), b.data(), b.numel()));
    if (na == 0.0f || nb == 0.0f)
        return 0.0f;
    return d / (na * nb);
}

float
klDivergenceFromLogits(const Tensor &p_logits, const Tensor &q_logits)
{
    if (p_logits.numel() != q_logits.numel())
        throw std::invalid_argument("KL size mismatch");
    Tensor p = p_logits.clone();
    Tensor q = q_logits.clone();
    softmaxInPlace(p.data(), p.numel());
    softmaxInPlace(q.data(), q.numel());
    double kl = 0.0;
    for (int64_t i = 0; i < p.numel(); ++i) {
        const double pi = std::max(1e-12f, p.data()[i]);
        const double qi = std::max(1e-12f, q.data()[i]);
        kl += pi * std::log(pi / qi);
    }
    return static_cast<float>(kl);
}

} // namespace ops
} // namespace specontext
