/**
 * @file
 * Unit and property tests for the autograd engine.
 *
 * Every differentiable operator is validated against central finite
 * differences through a parameterized gradient-check harness.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "autograd/loss.hh"
#include "autograd/ops.hh"
#include "autograd/optim.hh"
#include "autograd/var.hh"
#include "core/parallel.hh"

namespace mmbench {
namespace autograd {
namespace {

namespace ts = mmbench::tensor;

/** Evaluate scalar f at x (no autograd involvement). */
using ScalarFn = std::function<float(const Tensor &)>;

/**
 * Compare an analytic gradient against central finite differences at
 * a handful of probe positions.
 */
void
checkGrad(const Tensor &x, const Tensor &analytic, const ScalarFn &f,
          float eps = 1e-2f, float tol = 0.05f)
{
    ASSERT_EQ(analytic.shape(), x.shape());
    const int64_t n = x.numel();
    const int64_t step = std::max<int64_t>(1, n / 7);
    for (int64_t probe = 0; probe < n; probe += step) {
        Tensor xp = x.clone();
        xp.at(probe) += eps;
        Tensor xm = x.clone();
        xm.at(probe) -= eps;
        const float fd = (f(xp) - f(xm)) / (2 * eps);
        EXPECT_NEAR(analytic.at(probe), fd, tol)
            << "probe " << probe << " of " << x.shape().toString();
    }
}

TEST(GradMode, NoGradGuardSuppressesGraph)
{
    Var a(Tensor::ones(Shape{2}), true);
    {
        NoGradGuard guard;
        Var b = mulScalar(a, 2.0f);
        EXPECT_FALSE(b.needsGrad());
    }
    Var c = mulScalar(a, 2.0f);
    EXPECT_TRUE(c.needsGrad());
}

TEST(Var, LeafProperties)
{
    Var v(Tensor::ones(Shape{3}), true);
    EXPECT_TRUE(v.requiresGrad());
    EXPECT_TRUE(v.needsGrad());
    EXPECT_FALSE(v.hasGrad());
    Var w(Tensor::ones(Shape{3}), false);
    EXPECT_FALSE(w.needsGrad());
}

TEST(Var, DetachBreaksGraph)
{
    Var a(Tensor::ones(Shape{2}), true);
    Var b = mulScalar(a, 3.0f);
    Var d = b.detach();
    EXPECT_FALSE(d.needsGrad());
    EXPECT_TRUE(ts::allClose(d.value(), b.value()));
}

TEST(Backward, SimpleChain)
{
    // y = sum(2 * x) => dy/dx = 2.
    Var x(Tensor::fromVector(Shape{3}, {1, 2, 3}), true);
    Var y = sumAll(mulScalar(x, 2.0f));
    backward(y);
    EXPECT_EQ(x.grad().toVector(), (std::vector<float>{2, 2, 2}));
}

TEST(Backward, DiamondAccumulates)
{
    // y = sum(x * x + x) uses x twice via separate paths.
    Var x(Tensor::fromVector(Shape{2}, {3, 4}), true);
    Var y = sumAll(add(mul(x, x), x));
    backward(y);
    // dy/dx = 2x + 1.
    EXPECT_EQ(x.grad().toVector(), (std::vector<float>{7, 9}));
}

TEST(Backward, GradAccumulatesAcrossCalls)
{
    Var x(Tensor::ones(Shape{2}), true);
    Var y1 = sumAll(x);
    backward(y1);
    Var y2 = sumAll(x);
    backward(y2);
    EXPECT_EQ(x.grad().toVector(), (std::vector<float>{2, 2}));
    x.zeroGrad();
    EXPECT_FALSE(x.hasGrad());
}

TEST(Backward, StopsAtNonGradLeaves)
{
    Var x(Tensor::ones(Shape{2}), true);
    Var frozen(Tensor::ones(Shape{2}), false);
    Var y = sumAll(mul(x, frozen));
    backward(y);
    EXPECT_TRUE(x.hasGrad());
    EXPECT_FALSE(frozen.hasGrad());
}

TEST(ReduceGradTo, SuffixAndKeepdim)
{
    Tensor g = Tensor::ones(Shape{4, 3});
    Tensor r = reduceGradTo(g, Shape{3});
    EXPECT_EQ(r.toVector(), (std::vector<float>{4, 4, 4}));
    Tensor r2 = reduceGradTo(g, Shape{4, 1});
    EXPECT_EQ(r2.shape(), (Shape{4, 1}));
    EXPECT_EQ(r2.at(0), 3.0f);
}

// ---------------------------------------------------------------------
// Parameterized finite-difference gradient checks for unary operators.
// ---------------------------------------------------------------------

struct UnaryCase
{
    const char *name;
    std::function<Var(const Var &)> op;
    std::function<Tensor(const Tensor &)> ref;
};

class UnaryGradCheck : public ::testing::TestWithParam<UnaryCase>
{
};

TEST_P(UnaryGradCheck, MatchesFiniteDifference)
{
    const UnaryCase &tc = GetParam();
    Rng rng(42);
    // Offset away from relu kink at 0 to keep FD well-behaved.
    Tensor x0 = Tensor::randn(Shape{3, 5}, rng);
    for (int64_t i = 0; i < x0.numel(); ++i) {
        if (std::fabs(x0.at(i)) < 0.15f)
            x0.at(i) = 0.3f;
    }
    Var x(x0, true);
    Var y = sumAll(tc.op(x));
    backward(y);
    checkGrad(x0, x.grad(), [&](const Tensor &xt) {
        return ts::sumAll(tc.ref(xt)).item();
    });
}

INSTANTIATE_TEST_SUITE_P(
    Ops, UnaryGradCheck,
    ::testing::Values(
        UnaryCase{"relu", [](const Var &v) { return relu(v); },
                  [](const Tensor &t) { return ts::reluF(t); }},
        UnaryCase{"sigmoid", [](const Var &v) { return sigmoid(v); },
                  [](const Tensor &t) { return ts::sigmoidF(t); }},
        UnaryCase{"tanh", [](const Var &v) { return tanhV(v); },
                  [](const Tensor &t) { return ts::tanhF(t); }},
        UnaryCase{"gelu", [](const Var &v) { return gelu(v); },
                  [](const Tensor &t) { return ts::geluF(t); }},
        UnaryCase{"neg", [](const Var &v) { return neg(v); },
                  [](const Tensor &t) { return ts::neg(t); }},
        UnaryCase{"mul_scalar",
                  [](const Var &v) { return mulScalar(v, 1.7f); },
                  [](const Tensor &t) { return ts::mulScalar(t, 1.7f); }},
        UnaryCase{"softmax",
                  [](const Var &v) { return softmaxLast(v); },
                  [](const Tensor &t) { return ts::softmaxLast(t); }},
        UnaryCase{"log_softmax",
                  [](const Var &v) { return logSoftmaxLast(v); },
                  [](const Tensor &t) { return ts::logSoftmaxLast(t); }}),
    [](const ::testing::TestParamInfo<UnaryCase> &info) {
        return std::string(info.param.name);
    });

TEST(BinaryGrad, MulBothSides)
{
    Rng rng(1);
    Tensor a0 = Tensor::randn(Shape{4}, rng);
    Tensor b0 = Tensor::randn(Shape{4}, rng);
    Var a(a0, true), b(b0, true);
    Var y = sumAll(mul(a, b));
    backward(y);
    EXPECT_TRUE(ts::allClose(a.grad(), b0, 1e-5f));
    EXPECT_TRUE(ts::allClose(b.grad(), a0, 1e-5f));
}

TEST(BinaryGrad, BroadcastBiasAdd)
{
    Rng rng(2);
    Tensor x0 = Tensor::randn(Shape{6, 3}, rng);
    Tensor b0 = Tensor::randn(Shape{3}, rng);
    Var x(x0, true), b(b0, true);
    Var y = sumAll(add(x, b));
    backward(y);
    EXPECT_EQ(b.grad().shape(), (Shape{3}));
    EXPECT_EQ(b.grad().toVector(), (std::vector<float>{6, 6, 6}));
}

TEST(BinaryGrad, SubRightNegated)
{
    Var a(Tensor::ones(Shape{2}), true);
    Var b(Tensor::ones(Shape{2}), true);
    backward(sumAll(sub(a, b)));
    EXPECT_EQ(a.grad().toVector(), (std::vector<float>{1, 1}));
    EXPECT_EQ(b.grad().toVector(), (std::vector<float>{-1, -1}));
}

TEST(MatmulGrad, TwoDee)
{
    Rng rng(3);
    Tensor a0 = Tensor::randn(Shape{3, 4}, rng);
    Tensor b0 = Tensor::randn(Shape{4, 2}, rng);
    Var a(a0, true), b(b0, true);
    backward(sumAll(matmul(a, b)));
    checkGrad(a0, a.grad(), [&](const Tensor &at) {
        return ts::sumAll(ts::matmul(at, b0)).item();
    });
    checkGrad(b0, b.grad(), [&](const Tensor &bt) {
        return ts::sumAll(ts::matmul(a0, bt)).item();
    });
}

TEST(MatmulGrad, BatchedSharedRhs)
{
    Rng rng(4);
    Tensor a0 = Tensor::randn(Shape{2, 3, 4}, rng);
    Tensor b0 = Tensor::randn(Shape{4, 2}, rng);
    Var a(a0, true), b(b0, true);
    backward(sumAll(matmul(a, b)));
    EXPECT_EQ(a.grad().shape(), a0.shape());
    EXPECT_EQ(b.grad().shape(), b0.shape());
    checkGrad(b0, b.grad(), [&](const Tensor &bt) {
        return ts::sumAll(ts::matmul(a0, bt)).item();
    });
}

TEST(MatmulGrad, LinearLayerContract)
{
    Rng rng(5);
    Tensor x0 = Tensor::randn(Shape{4, 6}, rng);
    Tensor w0 = Tensor::randn(Shape{6, 3}, rng);
    Tensor b0 = Tensor::randn(Shape{3}, rng);
    Var x(x0, true), w(w0, true), b(b0, true);
    backward(sumAll(linear(x, w, b)));
    checkGrad(w0, w.grad(), [&](const Tensor &wt) {
        return ts::sumAll(ts::add(ts::matmul(x0, wt), b0)).item();
    });
    EXPECT_EQ(b.grad().toVector(), (std::vector<float>{4, 4, 4}));
}

TEST(OuterGrad, BatchedOuterProduct)
{
    Rng rng(6);
    Tensor a0 = Tensor::randn(Shape{3, 4}, rng);
    Tensor b0 = Tensor::randn(Shape{3, 5}, rng);
    Var a(a0, true), b(b0, true);
    backward(sumAll(outerBatch(a, b)));
    checkGrad(a0, a.grad(), [&](const Tensor &at) {
        return ts::sumAll(ts::outerBatch(at, b0)).item();
    });
    checkGrad(b0, b.grad(), [&](const Tensor &bt) {
        return ts::sumAll(ts::outerBatch(a0, bt)).item();
    });
}

TEST(ShapeGrad, ReshapeRoundTrip)
{
    Rng rng(7);
    Tensor x0 = Tensor::randn(Shape{2, 6}, rng);
    Var x(x0, true);
    backward(sumAll(reshape(x, Shape{3, 4})));
    EXPECT_EQ(x.grad().shape(), x0.shape());
    EXPECT_TRUE(ts::allClose(x.grad(), Tensor::ones(x0.shape())));
}

TEST(ShapeGrad, ConcatSplitsGradient)
{
    Var a(Tensor::ones(Shape{2, 2}), true);
    Var b(Tensor::ones(Shape{2, 3}), true);
    Var c = concat({a, b}, 1);
    backward(sumAll(mulScalar(c, 2.0f)));
    EXPECT_EQ(a.grad().shape(), (Shape{2, 2}));
    EXPECT_EQ(b.grad().shape(), (Shape{2, 3}));
    EXPECT_EQ(a.grad().at(0), 2.0f);
    EXPECT_EQ(b.grad().at(0), 2.0f);
}

TEST(ShapeGrad, NarrowScattersBack)
{
    Rng rng(8);
    Tensor x0 = Tensor::randn(Shape{3, 5}, rng);
    Var x(x0, true);
    backward(sumAll(narrow(x, 1, 1, 2)));
    // Columns 1..2 get grad 1, others 0.
    for (int64_t r = 0; r < 3; ++r) {
        EXPECT_EQ(x.grad().at(r, 0), 0.0f);
        EXPECT_EQ(x.grad().at(r, 1), 1.0f);
        EXPECT_EQ(x.grad().at(r, 2), 1.0f);
        EXPECT_EQ(x.grad().at(r, 4), 0.0f);
    }
}

TEST(ShapeGrad, SwapDimsInverts)
{
    Rng rng(9);
    Tensor x0 = Tensor::randn(Shape{2, 3, 4}, rng);
    Var x(x0, true);
    backward(sumAll(swapDims(x, 1, 2)));
    EXPECT_EQ(x.grad().shape(), x0.shape());
    EXPECT_TRUE(ts::allClose(x.grad(), Tensor::ones(x0.shape())));
}

TEST(ReduceGrad, MeanAxis)
{
    Tensor x0 = Tensor::ones(Shape{2, 4});
    Var x(x0, true);
    backward(sumAll(meanAxis(x, 1)));
    EXPECT_TRUE(ts::allClose(x.grad(),
                             Tensor::full(Shape{2, 4}, 0.25f)));
}

TEST(ConvGrad, FullStack)
{
    Rng rng(10);
    Tensor x0 = Tensor::randn(Shape{2, 2, 6, 6}, rng);
    Tensor w0 = Tensor::randn(Shape{3, 2, 3, 3}, rng, 0.5f);
    Tensor b0 = Tensor::randn(Shape{3}, rng);
    Var x(x0, true), w(w0, true), b(b0, true);
    backward(sumAll(conv2d(x, w, b, 1, 1)));
    checkGrad(w0, w.grad(), [&](const Tensor &wt) {
        return ts::sumAll(ts::conv2d(x0, wt, b0, 1, 1)).item();
    }, 1e-2f, 0.08f);
    // Bias grad: each output position contributes 1.
    EXPECT_NEAR(b.grad().at(0), 2.0f * 6 * 6, 1e-2f);
}

/**
 * Parameter grads of a conv -> BN -> ReLU -> conv net after backward()
 * at the given thread count: the conv dgrad/wgrad kernels as autograd
 * chains them, with BN's batch statistics in between.
 */
std::vector<Tensor>
convNetGrads(int threads)
{
    core::ScopedNumThreads guard(threads);
    Rng rng(16);
    Tensor x0 = Tensor::randn(Shape{8, 3, 12, 10}, rng);
    Var w1(Tensor::randn(Shape{8, 3, 3, 3}, rng, 0.5f), true);
    Var b1(Tensor::randn(Shape{8}, rng), true);
    Var gm(Tensor::ones(Shape{8}), true), bt(Tensor::zeros(Shape{8}), true);
    Var w2(Tensor::randn(Shape{6, 8, 3, 3}, rng, 0.5f), true);
    Tensor rm = Tensor::zeros(Shape{8});
    Tensor rv = Tensor::ones(Shape{8});
    Var h = relu(batchnorm2d(conv2d(Var(x0), w1, b1, 1, 1), gm, bt, rm, rv,
                             true));
    Var y = conv2d(h, w2, Var(), 2, 1);
    backward(sumAll(mul(y, Var(Tensor::randn(y.value().shape(), rng)))));
    return {w1.grad(), b1.grad(), gm.grad(), bt.grad(), w2.grad()};
}

TEST(ConvGrad, ParamGradsBitwiseAcrossThreadCounts)
{
    const std::vector<Tensor> serial = convNetGrads(1);
    const std::vector<Tensor> parallel = convNetGrads(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i].toVector(), parallel[i].toVector())
            << "param " << i;
}

TEST(PoolGrad, MaxAndAvg)
{
    Rng rng(11);
    Tensor x0 = Tensor::randn(Shape{1, 2, 4, 4}, rng);
    Var x1(x0, true);
    backward(sumAll(maxpool2d(x1, 2, 2)));
    // Exactly one gradient per window.
    float total = ts::sumAll(x1.grad()).item();
    EXPECT_FLOAT_EQ(total, 8.0f); // 2 ch x 4 windows

    Var x2(x0, true);
    backward(sumAll(avgpool2d(x2, 2, 2)));
    EXPECT_TRUE(ts::allClose(x2.grad(),
                             Tensor::full(x0.shape(), 0.25f)));
}

TEST(PoolGrad, GlobalAvgAndUpsample)
{
    Rng rng(12);
    Tensor x0 = Tensor::randn(Shape{2, 3, 4, 4}, rng);
    Var x(x0, true);
    backward(sumAll(globalAvgPool(x)));
    EXPECT_TRUE(ts::allClose(x.grad(),
                             Tensor::full(x0.shape(), 1.0f / 16.0f)));

    Var x2(x0, true);
    backward(sumAll(upsampleNearest2x(x2)));
    EXPECT_TRUE(ts::allClose(x2.grad(), Tensor::full(x0.shape(), 4.0f)));
}

TEST(NormGrad, LayernormFiniteDifference)
{
    Rng rng(13);
    Tensor x0 = Tensor::randn(Shape{4, 8}, rng);
    Tensor g0 = Tensor::randu(Shape{8}, rng, 0.5f, 1.5f);
    Tensor b0 = Tensor::randn(Shape{8}, rng);
    Var x(x0, true), gm(g0, true), bt(b0, true);
    backward(sumAll(mul(layernorm(x, gm, bt, 1e-5f),
                        Var(Tensor::randu(Shape{4, 8}, rng), false))));
    EXPECT_TRUE(x.hasGrad());
    EXPECT_TRUE(gm.hasGrad());
    EXPECT_TRUE(bt.hasGrad());
    EXPECT_TRUE(x.grad().allFinite());
}

TEST(NormGrad, LayernormGradChecks)
{
    Rng rng(14);
    Tensor x0 = Tensor::randn(Shape{3, 6}, rng);
    Tensor g0 = Tensor::ones(Shape{6});
    Tensor b0 = Tensor::zeros(Shape{6});
    // Use a fixed projection to make the scalar non-trivial.
    Tensor proj = Tensor::randn(Shape{3, 6}, rng);
    Var x(x0, true);
    Var y = sumAll(mul(layernorm(x, Var(g0), Var(b0), 1e-5f),
                       Var(proj)));
    backward(y);
    checkGrad(x0, x.grad(), [&](const Tensor &xt) {
        return ts::sumAll(
                   ts::mul(ts::layernorm(xt, g0, b0, 1e-5f), proj))
            .item();
    }, 1e-2f, 0.08f);
}

TEST(NormGrad, BatchnormTrainAndEval)
{
    Rng rng(15);
    Tensor x0 = Tensor::randn(Shape{4, 2, 3, 3}, rng);
    Tensor g0 = Tensor::ones(Shape{2});
    Tensor b0 = Tensor::zeros(Shape{2});
    Tensor rm = Tensor::zeros(Shape{2});
    Tensor rv = Tensor::ones(Shape{2});
    Var x(x0, true), gm(g0, true), bt(b0, true);
    Var y = batchnorm2d(x, gm, bt, rm, rv, true);
    backward(sumAll(mul(y, Var(Tensor::randn(x0.shape(), rng)))));
    EXPECT_TRUE(x.grad().allFinite());
    EXPECT_TRUE(gm.hasGrad());
    // Sum-of-output grad through BN is ~0 for x (normalization).
    Var x2(x0, true);
    Tensor rm2 = Tensor::zeros(Shape{2});
    Tensor rv2 = Tensor::ones(Shape{2});
    Var y2 = batchnorm2d(x2, Var(g0), Var(b0), rm2, rv2, true);
    backward(sumAll(y2));
    EXPECT_NEAR(ts::sumAll(ts::absF(x2.grad())).item(), 0.0f, 1e-3f);
}

TEST(EmbeddingGrad, ScatterAdd)
{
    Tensor w0 = Tensor::ones(Shape{5, 3});
    Tensor ids = Tensor::fromVector(Shape{4}, {0, 2, 2, 4});
    Var w(w0, true);
    backward(sumAll(embedding(w, ids)));
    EXPECT_EQ(w.grad().at(0, 0), 1.0f);
    EXPECT_EQ(w.grad().at(2, 0), 2.0f);
    EXPECT_EQ(w.grad().at(1, 0), 0.0f);
}

TEST(DropoutGrad, MaskConsistentAndEvalIdentity)
{
    Rng rng(16);
    Tensor x0 = Tensor::ones(Shape{1000});
    Var x(x0, true);
    Var y = dropout(x, 0.5f, true, rng);
    backward(sumAll(y));
    // grad equals the mask: zeros where dropped, 2.0 where kept.
    int64_t zeros = 0;
    for (int64_t i = 0; i < x.grad().numel(); ++i) {
        const float g = x.grad().at(i);
        EXPECT_TRUE(g == 0.0f || std::fabs(g - 2.0f) < 1e-6f);
        zeros += (g == 0.0f);
    }
    EXPECT_NEAR(static_cast<double>(zeros) / 1000.0, 0.5, 0.06);

    Var xe(x0, true);
    Var ye = dropout(xe, 0.5f, false, rng);
    EXPECT_TRUE(ts::allClose(ye.value(), x0));
}

TEST(Loss, CrossEntropyForwardAndGrad)
{
    // Two classes, confident correct prediction -> small loss.
    Tensor logits0 = Tensor::fromVector(Shape{2, 2}, {5, -5, -5, 5});
    Tensor labels = Tensor::fromVector(Shape{2}, {0, 1});
    Var logits(logits0, true);
    Var loss = crossEntropyLoss(logits, labels);
    EXPECT_LT(loss.value().item(), 0.01f);
    backward(loss);
    checkGrad(logits0, logits.grad(), [&](const Tensor &lt) {
        NoGradGuard ng;
        return crossEntropyLoss(Var(lt), labels).value().item();
    }, 1e-2f, 0.02f);
}

TEST(Loss, CrossEntropyUniformBaseline)
{
    // Zero logits over C classes -> loss = ln(C).
    Tensor logits0 = Tensor::zeros(Shape{4, 10});
    Var loss = crossEntropyLoss(Var(logits0, true),
                                Tensor::zeros(Shape{4}));
    EXPECT_NEAR(loss.value().item(), std::log(10.0f), 1e-5f);
}

TEST(Loss, BceWithLogits)
{
    Tensor logits0 = Tensor::fromVector(Shape{2, 2}, {3, -3, -3, 3});
    Tensor targets = Tensor::fromVector(Shape{2, 2}, {1, 0, 0, 1});
    Var logits(logits0, true);
    Var loss = bceWithLogitsLoss(logits, targets);
    EXPECT_LT(loss.value().item(), 0.1f);
    backward(loss);
    checkGrad(logits0, logits.grad(), [&](const Tensor &lt) {
        NoGradGuard ng;
        return bceWithLogitsLoss(Var(lt), targets).value().item();
    }, 1e-2f, 0.02f);
}

TEST(Loss, MseValueAndGrad)
{
    Tensor pred0 = Tensor::fromVector(Shape{2}, {1, 3});
    Tensor target = Tensor::fromVector(Shape{2}, {0, 0});
    Var pred(pred0, true);
    Var loss = mseLoss(pred, target);
    EXPECT_FLOAT_EQ(loss.value().item(), 5.0f);
    backward(loss);
    EXPECT_EQ(pred.grad().toVector(), (std::vector<float>{1, 3}));
}

TEST(Loss, PixelCrossEntropy)
{
    Rng rng(17);
    Tensor logits0 = Tensor::randn(Shape{2, 3, 4, 4}, rng);
    Tensor labels = Tensor::zeros(Shape{2, 4, 4});
    Var logits(logits0, true);
    Var loss = pixelCrossEntropyLoss(logits, labels);
    EXPECT_GT(loss.value().item(), 0.0f);
    backward(loss);
    EXPECT_TRUE(logits.grad().allFinite());
    // Per-pixel softmax-minus-onehot sums to 0 over channels.
    Tensor per_pixel = ts::sumAxis(logits.grad(), 1);
    EXPECT_NEAR(ts::sumAll(ts::absF(per_pixel)).item(), 0.0f, 1e-4f);
}

TEST(Optim, SgdConvergesOnQuadratic)
{
    // Minimize ||x - c||^2.
    Tensor c = Tensor::fromVector(Shape{3}, {1, -2, 3});
    Var x(Tensor::zeros(Shape{3}), true);
    Sgd opt({x}, 0.1f);
    for (int it = 0; it < 200; ++it) {
        opt.zeroGrad();
        Var loss = mseLoss(x, c);
        backward(loss);
        opt.step();
    }
    EXPECT_TRUE(ts::allClose(x.value(), c, 1e-3f));
}

TEST(Optim, SgdMomentumConverges)
{
    Tensor c = Tensor::fromVector(Shape{2}, {5, -5});
    Var x(Tensor::zeros(Shape{2}), true);
    Sgd opt({x}, 0.05f, 0.9f);
    for (int it = 0; it < 200; ++it) {
        opt.zeroGrad();
        backward(mseLoss(x, c));
        opt.step();
    }
    EXPECT_TRUE(ts::allClose(x.value(), c, 1e-2f));
}

TEST(Optim, AdamConverges)
{
    Tensor c = Tensor::fromVector(Shape{4}, {0.5f, -0.5f, 2, -2});
    Var x(Tensor::zeros(Shape{4}), true);
    Adam opt({x}, 0.05f);
    for (int it = 0; it < 500; ++it) {
        opt.zeroGrad();
        backward(mseLoss(x, c));
        opt.step();
    }
    EXPECT_TRUE(ts::allClose(x.value(), c, 1e-2f));
}

TEST(Optim, WeightDecayShrinksWeights)
{
    Var x(Tensor::ones(Shape{2}), true);
    Sgd opt({x}, 0.1f, 0.0f, 0.5f);
    // Zero loss gradient; only decay acts.
    opt.zeroGrad();
    backward(mulScalar(sumAll(x), 0.0f));
    opt.step();
    EXPECT_LT(x.value().at(0), 1.0f);
}

TEST(Optim, ClipGradNorm)
{
    Var x(Tensor::zeros(Shape{2}), true);
    x.accumulateGrad(Tensor::fromVector(Shape{2}, {30, 40})); // norm 50
    Sgd opt({x}, 1.0f);
    opt.clipGradNorm(5.0f);
    EXPECT_NEAR(x.grad().at(0), 3.0f, 1e-4f);
    EXPECT_NEAR(x.grad().at(1), 4.0f, 1e-4f);
}

TEST(Training, LinearRegressionEndToEnd)
{
    // Recover y = 2x + 1 from noisy samples.
    Rng rng(18);
    const int64_t n = 64;
    Tensor xs = Tensor::randu(Shape{n, 1}, rng, -1.0f, 1.0f);
    Tensor ys(Shape{n, 1});
    for (int64_t i = 0; i < n; ++i)
        ys.at(i) = 2.0f * xs.at(i) + 1.0f +
                   static_cast<float>(rng.gaussian(0.0, 0.01));
    Var w(Tensor::zeros(Shape{1, 1}), true);
    Var b(Tensor::zeros(Shape{1}), true);
    Sgd opt({w, b}, 0.5f);
    for (int epoch = 0; epoch < 150; ++epoch) {
        opt.zeroGrad();
        Var pred = linear(Var(xs), w, b);
        backward(mseLoss(pred, ys));
        opt.step();
    }
    EXPECT_NEAR(w.value().at(0), 2.0f, 0.05f);
    EXPECT_NEAR(b.value().at(0), 1.0f, 0.05f);
}

} // namespace
} // namespace autograd
} // namespace mmbench
