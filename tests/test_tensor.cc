/**
 * @file
 * Unit tests of the tensor substrate: storage semantics, shapes,
 * kernels (GEMM, softmax, RMSNorm, RoPE) and the deterministic RNG.
 */
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace specontext {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    EXPECT_NE(a.nextU64(), b.nextU64());
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, GaussianMomentsRoughlyStandard)
{
    Rng rng(11);
    double sum = 0.0, sum2 = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sum2 += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, ForkIsIndependent)
{
    Rng a(5);
    Rng child = a.fork();
    EXPECT_NE(a.nextU64(), child.nextU64());
}

TEST(Tensor, ZerosShapeAndValues)
{
    Tensor t({2, 3});
    EXPECT_EQ(t.ndim(), 2);
    EXPECT_EQ(t.dim(0), 2);
    EXPECT_EQ(t.dim(1), 3);
    EXPECT_EQ(t.numel(), 6);
    for (int64_t i = 0; i < 2; ++i)
        for (int64_t j = 0; j < 3; ++j)
            EXPECT_EQ(t.at(i, j), 0.0f);
}

TEST(Tensor, FullAndFill)
{
    Tensor t = Tensor::full({4}, 2.5f);
    EXPECT_EQ(t.at(2), 2.5f);
    t.fill(-1.0f);
    EXPECT_EQ(t.at(0), -1.0f);
}

TEST(Tensor, CopySharesStorageCloneDoesNot)
{
    Tensor a({3});
    Tensor shared = a;
    Tensor deep = a.clone();
    a.at(0) = 9.0f;
    EXPECT_EQ(shared.at(0), 9.0f);
    EXPECT_EQ(deep.at(0), 0.0f);
}

TEST(Tensor, ReshapePreservesData)
{
    Tensor a = Tensor::fromVector({1, 2, 3, 4, 5, 6});
    Tensor b = a.reshape({2, 3});
    EXPECT_EQ(b.at(1, 2), 6.0f);
    EXPECT_THROW(a.reshape({4}), std::invalid_argument);
}

TEST(Tensor, RowAccess)
{
    Tensor a = Tensor::fromVector({1, 2, 3, 4}).reshape({2, 2});
    EXPECT_EQ(a.row(1)[0], 3.0f);
    EXPECT_EQ(a.rowSize(), 2);
}

TEST(Tensor, RankCheckedAccessThrows)
{
    Tensor a({2, 2});
    EXPECT_THROW(a.at(0), std::logic_error);
    EXPECT_THROW(a.at(0, 0, 0), std::logic_error);
}

TEST(Tensor, RandnDeterministicFromSeed)
{
    Rng r1(42), r2(42);
    Tensor a = Tensor::randn({16}, r1);
    Tensor b = Tensor::randn({16}, r2);
    for (int64_t i = 0; i < 16; ++i)
        EXPECT_EQ(a.at(i), b.at(i));
}

TEST(Tensor, CopyFromChecksSize)
{
    Tensor a({4}), b({5});
    EXPECT_THROW(a.copyFrom(b), std::invalid_argument);
}

TEST(Tensor, ShapeString)
{
    EXPECT_EQ(Tensor({2, 3, 4}).shapeString(), "[2, 3, 4]");
}

TEST(Ops, MatmulIdentity)
{
    Tensor a = Tensor::fromVector({1, 2, 3, 4}).reshape({2, 2});
    Tensor eye = Tensor::zeros({2, 2});
    eye.at(0, 0) = eye.at(1, 1) = 1.0f;
    Tensor c = ops::matmul(a, eye);
    for (int64_t i = 0; i < 2; ++i)
        for (int64_t j = 0; j < 2; ++j)
            EXPECT_FLOAT_EQ(c.at(i, j), a.at(i, j));
}

TEST(Ops, MatmulKnownValues)
{
    Tensor a = Tensor::fromVector({1, 2, 3, 4, 5, 6}).reshape({2, 3});
    Tensor b = Tensor::fromVector({7, 8, 9, 10, 11, 12}).reshape({3, 2});
    Tensor c = ops::matmul(a, b);
    EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
    EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
    EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
    EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Ops, MatmulShapeMismatchThrows)
{
    EXPECT_THROW(ops::matmul(Tensor({2, 3}), Tensor({2, 3})),
                 std::invalid_argument);
}

TEST(Ops, MatmulTransposedBMatchesMatmul)
{
    Rng rng(3);
    Tensor a = Tensor::randn({3, 5}, rng);
    Tensor b = Tensor::randn({4, 5}, rng);
    // b^T explicit
    Tensor bt({5, 4});
    for (int64_t i = 0; i < 4; ++i)
        for (int64_t j = 0; j < 5; ++j)
            bt.at(j, i) = b.at(i, j);
    Tensor c1 = ops::matmulTransposedB(a, b);
    Tensor c2 = ops::matmul(a, bt);
    for (int64_t i = 0; i < c1.numel(); ++i)
        EXPECT_NEAR(c1.data()[i], c2.data()[i], 1e-5);
}

TEST(Ops, VecmatMatchesMatvecOfTranspose)
{
    Rng rng(4);
    Tensor w = Tensor::randn({3, 4}, rng);
    Tensor x = Tensor::randn({3}, rng);
    Tensor y = ops::vecmat(x, w); // x^T W -> length 4
    for (int64_t j = 0; j < 4; ++j) {
        float expect = 0.0f;
        for (int64_t i = 0; i < 3; ++i)
            expect += x.at(i) * w.at(i, j);
        EXPECT_NEAR(y.at(j), expect, 1e-5);
    }
}

TEST(Ops, SoftmaxSumsToOne)
{
    Tensor t = Tensor::fromVector({1.0f, 2.0f, 3.0f, 4.0f});
    ops::softmaxInPlace(t.data(), 4);
    float sum = 0.0f;
    for (int64_t i = 0; i < 4; ++i) {
        sum += t.at(i);
        EXPECT_GT(t.at(i), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-6);
    // Monotone in input.
    EXPECT_LT(t.at(0), t.at(3));
}

TEST(Ops, SoftmaxNumericallyStableForLargeLogits)
{
    Tensor t = Tensor::fromVector({1000.0f, 1000.0f});
    ops::softmaxInPlace(t.data(), 2);
    EXPECT_NEAR(t.at(0), 0.5f, 1e-6);
}

TEST(Ops, SoftmaxLastDimAppliesPerRow)
{
    Tensor t = Tensor::fromVector({0, 0, 10, 0}).reshape({2, 2});
    ops::softmaxLastDim(t);
    EXPECT_NEAR(t.at(0, 0), 0.5f, 1e-6);
    EXPECT_GT(t.at(1, 0), 0.99f);
}

TEST(Ops, RmsnormUnitGainPreservesDirection)
{
    Tensor x = Tensor::fromVector({3.0f, 4.0f});
    Tensor g = Tensor::full({2}, 1.0f);
    Tensor y = ops::rmsnorm(x, g);
    // RMS of y should be ~1.
    const float rms =
        std::sqrt((y.at(0) * y.at(0) + y.at(1) * y.at(1)) / 2.0f);
    EXPECT_NEAR(rms, 1.0f, 1e-3);
    EXPECT_NEAR(y.at(1) / y.at(0), 4.0f / 3.0f, 1e-4);
}

TEST(Ops, SiluKnownValues)
{
    Tensor x = Tensor::fromVector({0.0f});
    EXPECT_NEAR(ops::silu(x).at(0), 0.0f, 1e-6);
    Tensor big = Tensor::fromVector({20.0f});
    EXPECT_NEAR(ops::silu(big).at(0), 20.0f, 1e-3);
}

TEST(Ops, AddMulInPlace)
{
    Tensor a = Tensor::fromVector({1, 2});
    Tensor b = Tensor::fromVector({3, 5});
    EXPECT_FLOAT_EQ(ops::add(a, b).at(1), 7.0f);
    EXPECT_FLOAT_EQ(ops::mul(a, b).at(1), 10.0f);
    ops::addInPlace(a, b);
    EXPECT_FLOAT_EQ(a.at(0), 4.0f);
}

TEST(Ops, RopePreservesNorm)
{
    Rng rng(8);
    Tensor qk = Tensor::randn({2, 8}, rng);
    Tensor before = qk.clone();
    ops::applyRope(qk, 17);
    for (int64_t h = 0; h < 2; ++h) {
        float n0 = 0, n1 = 0;
        for (int64_t d = 0; d < 8; ++d) {
            n0 += before.at(h, d) * before.at(h, d);
            n1 += qk.at(h, d) * qk.at(h, d);
        }
        EXPECT_NEAR(n0, n1, 1e-3);
    }
}

TEST(Ops, RopePositionZeroIsIdentity)
{
    Rng rng(9);
    Tensor qk = Tensor::randn({1, 8}, rng);
    Tensor before = qk.clone();
    ops::applyRope(qk, 0);
    for (int64_t d = 0; d < 8; ++d)
        EXPECT_NEAR(qk.at(0, d), before.at(0, d), 1e-6);
}

TEST(Ops, RopeRelativePositionProperty)
{
    // Dot(q(t), k(p)) must depend only on t - p: rotating both by the
    // same offset keeps the score constant.
    Rng rng(10);
    Tensor q0 = Tensor::randn({1, 8}, rng);
    Tensor k0 = Tensor::randn({1, 8}, rng);

    auto score = [&](int64_t tq, int64_t tk) {
        Tensor q = q0.clone(), k = k0.clone();
        ops::applyRope(q, tq);
        ops::applyRope(k, tk);
        return ops::dot(q.row(0), k.row(0), 8);
    };
    EXPECT_NEAR(score(5, 2), score(105, 102), 1e-3);
}

TEST(Ops, YarnScaleSlowsRotation)
{
    // With yarn_scale = s, position p behaves like p / s.
    Rng rng(12);
    Tensor a = Tensor::randn({1, 8}, rng);
    Tensor b = a.clone();
    ops::applyRope(a, 32, 10000.0f, 4.0f);
    ops::applyRope(b, 8, 10000.0f, 1.0f);
    for (int64_t d = 0; d < 8; ++d)
        EXPECT_NEAR(a.at(0, d), b.at(0, d), 1e-4);
}

/**
 * Each kernel test runs once per kernel set, calling the set directly;
 * the AVX2 run skips on a CPU without AVX2, so such a runner still
 * covers the portable kernels the public functions fall back to.
 */
class Kernels : public ::testing::TestWithParam<bool>
{
  protected:
    void SetUp() override
    {
        if (GetParam() && !ops::avx2Kernels())
            GTEST_SKIP() << "CPU lacks AVX2";
    }

    const ops::KernelSet &kernels() const
    {
        return GetParam() ? *ops::avx2Kernels() : ops::portableKernels();
    }
};

INSTANTIATE_TEST_SUITE_P(Ops, Kernels, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool> &info) {
                             return info.param ? "Avx2" : "Portable";
                         });

/**
 * Operands for a bitwise matmul check. A dense case has no zero in a.
 * Otherwise about a fifth of a is zero, and column k / 2 of a is zero
 * in every row, above an inf in b: a kernel that multiplies instead of
 * skipping a zero turns that inf into NaN.
 */
struct MatmulCase
{
    int64_t m, k, n;
    std::vector<float> a, b;

    MatmulCase(int64_t m_, int64_t k_, int64_t n_, bool dense, Rng &rng)
        : m(m_), k(k_), n(n_), a(m_ * k_), b(k_ * n_)
    {
        for (float &x : a) {
            x = !dense && rng.uniform() < 0.2 ? 0.0f : rng.gaussian();
            if (dense && x == 0.0f)
                x = 1.0f;
        }
        for (float &x : b)
            x = rng.gaussian();
        if (dense)
            return;
        for (int64_t i = 0; i < m; ++i)
            a[i * k + k / 2] = 0.0f;
        b[(k / 2) * n + n / 2] = std::numeric_limits<float>::infinity();
    }

    /** Ascending p, a multiply then an add, zero entries of a skipped. */
    std::vector<float> naive() const
    {
        std::vector<float> c(m * n);
        for (int64_t i = 0; i < m; ++i) {
            for (int64_t j = 0; j < n; ++j) {
                float s = 0.0f;
                for (int64_t p = 0; p < k; ++p) {
                    if (a[i * k + p] == 0.0f)
                        continue;
                    s += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = s;
            }
        }
        return c;
    }
};

bool
allFinite(const std::vector<float> &v)
{
    return std::all_of(v.begin(), v.end(),
                       [](float x) { return std::isfinite(x); });
}

TEST_P(Kernels, MatmulMatchesNaiveLoopBitwise)
{
    Rng rng(24);
    for (int64_t m : {1, 3, 4, 5, 64, 67}) {
        for (int64_t n : {1, 7, 16, 17, 64, 130}) {
            for (int64_t k : {1, 17, 128, 256}) {
                for (bool dense : {true, false}) {
                    const MatmulCase mc(m, k, n, dense, rng);
                    const std::vector<float> want = mc.naive();
                    // NaN fill: a kernel that leaves an output unwritten
                    // fails the comparison.
                    std::vector<float> got(m * n, std::nanf(""));
                    kernels().matmul(mc.a.data(), mc.b.data(), m, k, n,
                                     got.data());
                    ASSERT_TRUE(allFinite(want));
                    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                          m * n * sizeof(float)),
                              0)
                        << "m " << m << " k " << k << " n " << n
                        << (dense ? " dense" : " with zeros");
                }
            }
        }
    }
}

TEST_P(Kernels, VecmatMatchesNaiveLoopBitwise)
{
    // vecmat is the one-row matmul; the public call must agree too.
    Rng rng(25);
    for (int64_t n : {1, 7, 16, 17, 64, 130, 512}) {
        for (int64_t k : {1, 17, 128, 256}) {
            for (bool dense : {true, false}) {
                const MatmulCase mc(1, k, n, dense, rng);
                const std::vector<float> want = mc.naive();
                std::vector<float> got(n, std::nanf(""));
                kernels().matmul(mc.a.data(), mc.b.data(), 1, k, n,
                                 got.data());
                const Tensor x = Tensor::fromVector(mc.a);
                const Tensor w = Tensor::fromVector(mc.b).reshape({k, n});
                const Tensor y = ops::vecmat(x, w);
                ASSERT_TRUE(allFinite(want));
                EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                      n * sizeof(float)),
                          0)
                    << "k " << k << " n " << n;
                EXPECT_EQ(
                    std::memcmp(y.data(), want.data(), n * sizeof(float)), 0)
                    << "k " << k << " n " << n;
            }
        }
    }
}

TEST_P(Kernels, ScaledScoresMatchDotBitwise)
{
    // Every score equals dot(q, key) * scale bit for bit: whole blocks
    // of eight and sixteen keys, ragged tails, and head_dims with and
    // without a tail past a multiple of four, at a packed and a strided
    // key layout.
    Rng rng(21);
    const float scale = 0.25f;
    for (int64_t dim : {3, 8, 16, 18, 33}) {
        for (int64_t stride : {dim, 4 * dim + 3}) {
            for (int64_t n : {1, 7, 8, 9, 15, 16, 17, 24, 33, 100}) {
                const Tensor q = Tensor::randn({dim}, rng);
                const Tensor keys = Tensor::randn({n * stride}, rng);
                std::vector<float> got(n), want(n);
                kernels().scaledScores(q.data(), keys.data(), dim, stride,
                                       n, scale, got.data());
                for (int64_t i = 0; i < n; ++i)
                    want[i] = ops::dot(q.data(), keys.data() + i * stride,
                                       dim) *
                              scale;
                EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                      n * sizeof(float)),
                          0)
                    << "dim " << dim << " stride " << stride << " n " << n;
            }
        }
    }
}

TEST_P(Kernels, WeightedSumMatchesAccumulationLoopBitwise)
{
    // dims cross the 8- and 16-wide blocks and their masked tails.
    Rng rng(22);
    for (int64_t dim : {1, 7, 8, 9, 15, 16, 17, 24, 40}) {
        for (int64_t stride : {dim, dim + 5, dim + 8 - dim % 8}) {
            for (int64_t n : {0, 1, 37}) {
                const Tensor w = Tensor::randn({n}, rng);
                const Tensor rows = Tensor::randn({n * stride}, rng);
                std::vector<float> got(dim, std::nanf("")), want(dim, 0.0f);
                kernels().weightedSum(w.data(), rows.data(), dim, stride, n,
                                      got.data());
                for (int64_t i = 0; i < n; ++i)
                    for (int64_t d = 0; d < dim; ++d)
                        want[d] += w.data()[i] * rows.data()[i * stride + d];
                EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                      dim * sizeof(float)),
                          0)
                    << "dim " << dim << " stride " << stride << " n " << n;
            }
        }
    }
}

TEST(Ops, RopeTableRowRotatesLikeApplyRope)
{
    Rng rng(23);
    const Tensor table = ops::ropeTable(5, 4, 16, 10000.0f, 2.0f);
    for (int64_t r = 0; r < 4; ++r) {
        Tensor a = Tensor::randn({3, 16}, rng);
        Tensor b = a.clone();
        ops::applyRope(a, 5 + r, 10000.0f, 2.0f);
        ops::applyRope(b.data(), 3, 16, table.row(r));
        EXPECT_EQ(std::memcmp(a.data(), b.data(), 48 * sizeof(float)), 0);
    }
}

TEST(Ops, RmsnormRowsMatchRankOne)
{
    Rng rng(24);
    const Tensor x = Tensor::randn({3, 8}, rng);
    const Tensor gain = Tensor::randn({8}, rng);
    const Tensor y = ops::rmsnorm(x, gain);
    for (int64_t r = 0; r < 3; ++r) {
        Tensor xr({8});
        std::copy(x.row(r), x.row(r) + 8, xr.data());
        const Tensor yr = ops::rmsnorm(xr, gain);
        EXPECT_EQ(std::memcmp(yr.data(), y.row(r), 8 * sizeof(float)), 0);
    }
}

TEST(Ops, ArgmaxAndMean)
{
    Tensor t = Tensor::fromVector({1, 9, 3});
    EXPECT_EQ(ops::argmax(t), 1);
    EXPECT_NEAR(ops::mean(t), 13.0f / 3.0f, 1e-5);
}

TEST(Ops, CosineSimilaritySelfIsOne)
{
    Rng rng(13);
    Tensor a = Tensor::randn({32}, rng);
    EXPECT_NEAR(ops::cosineSimilarity(a, a), 1.0f, 1e-5);
}

TEST(Ops, KlDivergenceZeroForIdenticalLogits)
{
    Tensor p = Tensor::fromVector({1, 2, 3});
    EXPECT_NEAR(ops::klDivergenceFromLogits(p, p), 0.0f, 1e-5);
}

TEST(Ops, KlDivergencePositiveForDifferentLogits)
{
    Tensor p = Tensor::fromVector({1, 2, 3});
    Tensor q = Tensor::fromVector({3, 2, 1});
    EXPECT_GT(ops::klDivergenceFromLogits(p, q), 0.01f);
}

} // namespace
} // namespace specontext
