/**
 * @file
 * Convolution and pooling operators (NCHW layout).
 *
 * Large convolutions are lowered to im2col + the shared blocked GEMM
 * (the same scheme cuDNN's implicit-GEMM algorithm uses); tiny shapes
 * keep the direct loop, which also serves as the numerical reference
 * (conv2dReference). Either path is reported as one Conv-class kernel
 * launch, so the trace the simulator consumes is unchanged.
 *
 * The backward passes run on the same GEMM: dgrad as W^T g per image
 * followed by a col2im scatter-add, wgrad as one col g^T partial per
 * image folded into the weight gradient in image order. The seed-era
 * direct loops remain as conv2dGradInputReference /
 * conv2dGradWeightReference for the equivalence tests and ops_micro.
 */

#include "tensor/ops.hh"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/logging.hh"
#include "core/parallel.hh"
#include "tensor/ops_common.hh"
#include "trace/sink.hh"

namespace mmbench {
namespace tensor {

namespace {

/** Output spatial extent for a conv/pool window sweep. */
int64_t
outExtent(int64_t in, int kernel, int stride, int pad)
{
    const int64_t out = (in + 2 * pad - kernel) / stride + 1;
    MM_ASSERT(out > 0,
              "window (k=%d, s=%d, p=%d) does not fit input extent %lld",
              kernel, stride, pad, static_cast<long long>(in));
    return out;
}

/** Below this many MACs per image the direct loop beats im2col. */
constexpr int64_t kDirectConvMacLimit = 1 << 14;

/**
 * A 1x1/stride-1/no-pad convolution: its im2col matrix is the input
 * itself, so the lowerings skip im2col (and col2im) entirely.
 */
bool
pointwiseConv(int kh, int kw, int stride, int pad)
{
    return kh == 1 && kw == 1 && stride == 1 && pad == 0;
}

/**
 * Direct-loop convolution of one image: out plane (oc, oh*ow),
 * input (c, h, wd). The tiny-shape path and the reference kernel.
 */
void
convDirectImage(const float *xb, const float *pw, const float *pb,
                float *ob, int64_t c, int64_t h, int64_t wd, int64_t oc,
                int kh, int kw, int64_t oh, int64_t ow, int stride,
                int pad, ActKind act = ActKind::None)
{
    dispatchAct(act, [&](auto actc) {
        constexpr ActKind kAct = decltype(actc)::value;
        for (int64_t o = 0; o < oc; ++o) {
            const float *wb = pw + o * c * kh * kw;
            const float bias = pb ? pb[o] : 0.0f;
            float *oplane = ob + o * oh * ow;
            for (int64_t y = 0; y < oh; ++y) {
                for (int64_t xo = 0; xo < ow; ++xo) {
                    float acc = bias;
                    const int64_t iy0 = y * stride - pad;
                    const int64_t ix0 = xo * stride - pad;
                    for (int64_t ci = 0; ci < c; ++ci) {
                        const float *xplane = xb + ci * h * wd;
                        const float *wplane = wb + ci * kh * kw;
                        for (int ky = 0; ky < kh; ++ky) {
                            const int64_t iy = iy0 + ky;
                            if (iy < 0 || iy >= h)
                                continue;
                            for (int kx = 0; kx < kw; ++kx) {
                                const int64_t ix = ix0 + kx;
                                if (ix < 0 || ix >= wd)
                                    continue;
                                acc += xplane[iy * wd + ix] *
                                       wplane[ky * kw + kx];
                            }
                        }
                    }
                    oplane[y * ow + xo] = applyAct(kAct, acc);
                }
            }
        }
    });
}

/**
 * Lower one image to column form: col[(ci*kh+ky)*kw+kx][y*ow+xo] =
 * x[ci][y*stride-pad+ky][xo*stride-pad+kx] (0 outside the input).
 * col is (c*kh*kw) x (oh*ow), row-major.
 */
void
im2col(const float *xb, float *col, int64_t c, int64_t h, int64_t wd,
       int kh, int kw, int64_t oh, int64_t ow, int stride, int pad)
{
    core::parallelFor(0, c * kh * kw, 4, [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
            const int64_t ci = r / (kh * kw);
            const int ky = static_cast<int>((r / kw) % kh);
            const int kx = static_cast<int>(r % kw);
            const float *xplane = xb + ci * h * wd;
            float *crow = col + r * oh * ow;
            for (int64_t y = 0; y < oh; ++y) {
                const int64_t iy = y * stride - pad + ky;
                float *cdst = crow + y * ow;
                if (iy < 0 || iy >= h) {
                    std::fill(cdst, cdst + ow, 0.0f);
                    continue;
                }
                const float *xrow = xplane + iy * wd;
                const int64_t ix0 = -pad + kx;
                if (stride == 1 && ix0 >= 0 && ix0 + ow <= wd) {
                    std::copy(xrow + ix0, xrow + ix0 + ow, cdst);
                    continue;
                }
                for (int64_t xo = 0; xo < ow; ++xo) {
                    const int64_t ix = xo * stride + ix0;
                    cdst[xo] = (ix < 0 || ix >= wd) ? 0.0f : xrow[ix];
                }
            }
        }
    });
}

/**
 * im2col + blocked GEMM for one image (bias pre-filled into out; a
 * fused activation rides the GEMM epilogue, reading the accumulated
 * element — bias included — exactly as a separate pass would).
 */
void
convGemmImage(const float *xb, const float *pw, const float *pb,
              float *ob, float *col, int64_t c, int64_t h, int64_t wd,
              int64_t oc, int kh, int kw, int64_t oh, int64_t ow,
              int stride, int pad, ActKind act = ActKind::None)
{
    const int64_t kdim = c * kh * kw;
    const int64_t ohw = oh * ow;
    const bool gemm_direct = pointwiseConv(kh, kw, stride, pad);
    if (!gemm_direct)
        im2col(xb, col, c, h, wd, kh, kw, oh, ow, stride, pad);
    const float *cols = gemm_direct ? xb : col;
    if (pb) {
        core::parallelFor(0, oc, 8, [&](int64_t o0, int64_t o1) {
            for (int64_t o = o0; o < o1; ++o)
                std::fill(ob + o * ohw, ob + (o + 1) * ohw, pb[o]);
        });
    } else {
        std::fill(ob, ob + oc * ohw, 0.0f);
    }
    if (act == ActKind::None) {
        detail::gemmBlocked({pw, kdim, 1}, {cols, ohw, 1}, ob, oc, kdim,
                            ohw);
    } else {
        const detail::Epilogue epi{nullptr, act};
        detail::gemmBlocked({pw, kdim, 1}, {cols, ohw, 1}, ob, oc, kdim,
                            ohw, &epi);
    }
}

/**
 * The adjoint of im2col: scatter-add one image's column gradient onto
 * its input planes, gx[ci][iy][ix] += col[(ci*kh+ky)*kw+kx][y*ow+xo]
 * for every tap im2col read from (iy, ix). Parallel over input
 * channels, so each worker owns disjoint planes; within a plane the
 * taps add in a fixed (ky, kx, y, xo) order for any thread count.
 */
void
col2im(const float *col, float *xb, int64_t c, int64_t h, int64_t wd,
       int kh, int kw, int64_t oh, int64_t ow, int stride, int pad)
{
    core::parallelFor(0, c, 1, [&](int64_t c0, int64_t c1) {
        for (int64_t ci = c0; ci < c1; ++ci) {
            float *xplane = xb + ci * h * wd;
            for (int ky = 0; ky < kh; ++ky) {
                for (int kx = 0; kx < kw; ++kx) {
                    const float *crow =
                        col + ((ci * kh + ky) * kw + kx) * oh * ow;
                    // Output columns whose tap lands inside the row.
                    const int64_t ix0 = kx - pad;
                    const int64_t x0 =
                        ix0 >= 0 ? 0 : (stride - 1 - ix0) / stride;
                    const int64_t x1 =
                        ix0 >= wd ? 0
                                  : std::min(ow, (wd - 1 - ix0) / stride + 1);
                    for (int64_t y = 0; y < oh; ++y) {
                        const int64_t iy = y * stride - pad + ky;
                        if (iy < 0 || iy >= h)
                            continue;
                        float *xrow = xplane + iy * wd;
                        const float *src = crow + y * ow;
                        for (int64_t xo = x0; xo < x1; ++xo)
                            xrow[xo * stride + ix0] += src[xo];
                    }
                }
            }
        }
    });
}

/**
 * dgrad of one image: gcol (c*kh*kw x oh*ow) = W^T g_n, with W^T read
 * through operand strides (no transpose copy), then col2im into the
 * zeroed gx_n. A 1x1/stride-1/no-pad conv has gcol == gx_n, so the
 * GEMM accumulates straight into it.
 */
void
convGradInputImage(const float *gb, const float *pw, float *gxb,
                   float *gcol, int64_t c, int64_t h, int64_t wd,
                   int64_t oc, int kh, int kw, int64_t oh, int64_t ow,
                   int stride, int pad)
{
    const int64_t kdim = c * kh * kw;
    const int64_t ohw = oh * ow;
    const bool gemm_direct = pointwiseConv(kh, kw, stride, pad);
    float *dst = gemm_direct ? gxb : gcol;
    if (!gemm_direct) {
        core::parallelFor(0, kdim, 16, [&](int64_t r0, int64_t r1) {
            std::fill(gcol + r0 * ohw, gcol + r1 * ohw, 0.0f);
        });
    }
    detail::gemmBlocked({pw, 1, kdim}, {gb, ohw, 1}, dst, kdim, oc, ohw);
    if (!gemm_direct)
        col2im(gcol, gxb, c, h, wd, kh, kw, oh, ow, stride, pad);
}

/**
 * wgrad partial of one image, stored transposed: part (c*kh*kw x oc) =
 * col_n g_n^T, where col_n is im2col(x_n) (x_n itself for a
 * 1x1/stride-1/no-pad conv) and g_n^T is read through strides. The
 * long pixel axis is the GEMM's k, summed in one ascending pass.
 */
void
convGradWeightImage(const float *gb, const float *xb, float *part,
                    float *col, int64_t c, int64_t h, int64_t wd,
                    int64_t oc, int kh, int kw, int64_t oh, int64_t ow,
                    int stride, int pad)
{
    const int64_t kdim = c * kh * kw;
    const int64_t ohw = oh * ow;
    const bool gemm_direct = pointwiseConv(kh, kw, stride, pad);
    if (!gemm_direct)
        im2col(xb, col, c, h, wd, kh, kw, oh, ow, stride, pad);
    std::fill(part, part + kdim * oc, 0.0f);
    detail::gemmBlocked({gemm_direct ? xb : col, ohw, 1}, {gb, 1, ohw},
                        part, kdim, ohw, oc);
}

/**
 * im2col over reduced-precision elements: identical layout and
 * zero-padding rules, but the elements move untouched (the input was
 * already cast), so the column buffer carries the reduced payload.
 */
template <typename T>
void
im2colT(const T *xb, T *col, int64_t c, int64_t h, int64_t wd, int kh,
        int kw, int64_t oh, int64_t ow, int stride, int pad)
{
    core::parallelFor(0, c * kh * kw, 4, [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
            const int64_t ci = r / (kh * kw);
            const int ky = static_cast<int>((r / kw) % kh);
            const int kx = static_cast<int>(r % kw);
            const T *xplane = xb + ci * h * wd;
            T *crow = col + r * oh * ow;
            for (int64_t y = 0; y < oh; ++y) {
                const int64_t iy = y * stride - pad + ky;
                T *cdst = crow + y * ow;
                if (iy < 0 || iy >= h) {
                    std::fill(cdst, cdst + ow, static_cast<T>(0));
                    continue;
                }
                const T *xrow = xplane + iy * wd;
                const int64_t ix0 = -pad + kx;
                if (stride == 1 && ix0 >= 0 && ix0 + ow <= wd) {
                    std::copy(xrow + ix0, xrow + ix0 + ow, cdst);
                    continue;
                }
                for (int64_t xo = 0; xo < ow; ++xo) {
                    const int64_t ix = xo * stride + ix0;
                    cdst[xo] = (ix < 0 || ix >= wd) ? static_cast<T>(0)
                                                    : xrow[ix];
                }
            }
        }
    });
}

/**
 * i8 conv of one image in i32: out[o][j] = act(dequant * sum_k
 * wq[o][k] * colq[k][j] + bias[o]). Parallel over output channels
 * (disjoint rows; deterministic), nesting-safe like the GEMM.
 */
void
convI8Image(const int8_t *colq, const int8_t *wq, const float *pb,
            float *ob, int64_t oc, int64_t kdim, int64_t ohw,
            float dequant, ActKind act)
{
    dispatchAct(act, [&](auto actc) {
        constexpr ActKind kAct = decltype(actc)::value;
        core::parallelFor(0, oc, 1, [&](int64_t o0, int64_t o1) {
            std::vector<int32_t> acc(static_cast<size_t>(ohw));
            for (int64_t o = o0; o < o1; ++o) {
                std::fill(acc.begin(), acc.end(), 0);
                const int8_t *wrow = wq + o * kdim;
                for (int64_t kk = 0; kk < kdim; ++kk) {
                    const int32_t wv = wrow[kk];
                    const int8_t *crow = colq + kk * ohw;
                    for (int64_t j = 0; j < ohw; ++j)
                        acc[j] += wv * static_cast<int32_t>(crow[j]);
                }
                const float bias = pb ? pb[o] : 0.0f;
                float *orow = ob + o * ohw;
                for (int64_t j = 0; j < ohw; ++j)
                    orow[j] = applyAct(
                        kAct,
                        static_cast<float>(acc[j]) * dequant + bias);
            }
        });
    });
}

/** Static Conv event names for the reduced-precision entry points. */
const char *
convDtName(DType dt, bool cast_input)
{
    switch (dt) {
      case DType::BF16: return cast_input ? "conv_bf16" : "conv_bf16_w";
      case DType::F16:  return cast_input ? "conv_f16" : "conv_f16_w";
      case DType::I8:   return "conv_i8";
      case DType::F32:  break;
    }
    return "conv2d";
}

/** Canonical fused conv event names (static strings; see linearAct). */
const char *
fusedConvName(bool bias, ActKind act)
{
    static const char *with_bias[] = {
        "conv2d", "fused:conv_bias_relu", "fused:conv_bias_sigmoid",
        "fused:conv_bias_tanh", "fused:conv_bias_gelu",
    };
    static const char *no_bias[] = {
        "conv2d", "fused:conv_relu", "fused:conv_sigmoid",
        "fused:conv_tanh", "fused:conv_gelu",
    };
    const int i = static_cast<int>(act);
    return bias ? with_bias[i] : no_bias[i];
}

/**
 * Shared driver for conv2d / conv2dAct. The three-way dispatch
 * (direct for tiny shapes, parallel-over-images, few-images) is the
 * production heuristic; ConvAlgo::Im2col / ConvAlgo::Direct pin one
 * lowering for the solver registry's candidates.
 */
Tensor
conv2dImpl(const Tensor &x, const Tensor &w, const Tensor &b, int stride,
           int pad, ActKind act, ConvAlgo algo)
{
    MM_ASSERT(x.ndim() == 4 && w.ndim() == 4, "conv2d needs NCHW x OIHW");
    const int64_t n = x.size(0), c = x.size(1), h = x.size(2), wd = x.size(3);
    const int64_t oc = w.size(0), wc = w.size(1);
    const int kh = static_cast<int>(w.size(2));
    const int kw = static_cast<int>(w.size(3));
    MM_ASSERT(wc == c, "conv2d channel mismatch: input %lld, weight %lld",
              static_cast<long long>(c), static_cast<long long>(wc));
    MM_ASSERT(stride >= 1 && pad >= 0, "invalid conv2d stride/pad");
    const int64_t oh = outExtent(h, kh, stride, pad);
    const int64_t ow = outExtent(wd, kw, stride, pad);

    Tensor out(Shape{n, oc, oh, ow});
    const float *px = x.data();
    const float *pw = w.data();
    const float *pb = b.defined() ? b.data() : nullptr;
    float *po = out.data();

    const int64_t macs_per_image = oc * oh * ow * c * kh * kw;
    const bool direct = algo == ConvAlgo::Direct ||
                        (algo == ConvAlgo::Auto &&
                         macs_per_image < kDirectConvMacLimit);
    if (direct) {
        core::parallelFor(0, n, 1, [&](int64_t n0, int64_t n1) {
            for (int64_t ni = n0; ni < n1; ++ni)
                convDirectImage(px + ni * c * h * wd, pw, pb,
                                po + ni * oc * oh * ow, c, h, wd, oc,
                                kh, kw, oh, ow, stride, pad, act);
        });
    } else if (n >= core::numThreads()) {
        // Parallel over images; per-image lowering+GEMM runs serially
        // inside its worker.
        core::parallelFor(0, n, 1, [&](int64_t n0, int64_t n1) {
            std::vector<float> col(
                static_cast<size_t>(c * kh * kw) * oh * ow);
            for (int64_t ni = n0; ni < n1; ++ni)
                convGemmImage(px + ni * c * h * wd, pw, pb,
                              po + ni * oc * oh * ow, col.data(), c, h,
                              wd, oc, kh, kw, oh, ow, stride, pad, act);
        });
    } else {
        // Few images: parallelize inside im2col and the GEMM instead.
        std::vector<float> col(static_cast<size_t>(c * kh * kw) * oh *
                               ow);
        for (int64_t ni = 0; ni < n; ++ni)
            convGemmImage(px + ni * c * h * wd, pw, pb,
                          po + ni * oc * oh * ow, col.data(), c, h, wd,
                          oc, kh, kw, oh, ow, stride, pad, act);
    }

    const uint64_t flops = 2ULL * static_cast<uint64_t>(n * oc * oh * ow) *
                           static_cast<uint64_t>(c * kh * kw) +
                           static_cast<uint64_t>(out.numel()) * actFlops(act);
    trace::emitKernel(trace::KernelClass::Conv,
                      fusedConvName(pb != nullptr, act), flops,
                      x.bytes() + w.bytes() +
                          (b.defined() ? b.bytes() : 0),
                      out.bytes());
    return out;
}

} // namespace

Tensor
conv2d(const Tensor &x, const Tensor &w, const Tensor &b, int stride,
       int pad)
{
    return conv2dImpl(x, w, b, stride, pad, ActKind::None, ConvAlgo::Auto);
}

Tensor
conv2dAct(const Tensor &x, const Tensor &w, const Tensor &b, int stride,
          int pad, ActKind act, ConvAlgo algo)
{
    return conv2dImpl(x, w, b, stride, pad, act, algo);
}

Tensor
conv2dActDt(const Tensor &x, const Tensor &w, const Tensor &b, int stride,
            int pad, ActKind act, bool cast_input)
{
    MM_ASSERT(x.ndim() == 4 && w.ndim() == 4,
              "conv2dActDt needs NCHW x OIHW");
    MM_ASSERT(x.dtype() == DType::F32, "conv2dActDt input must be f32");
    MM_ASSERT(w.dtype() != DType::F32,
              "conv2dActDt weight must be reduced; use conv2d for f32");
    const int64_t n = x.size(0), c = x.size(1), h = x.size(2),
                  wd = x.size(3);
    const int64_t oc = w.size(0);
    const int kh = static_cast<int>(w.size(2));
    const int kw = static_cast<int>(w.size(3));
    MM_ASSERT(w.size(1) == c, "conv2dActDt channel mismatch");
    MM_ASSERT(stride >= 1 && pad >= 0, "invalid conv2dActDt stride/pad");
    const int64_t oh = outExtent(h, kh, stride, pad);
    const int64_t ow = outExtent(wd, kw, stride, pad);
    const int64_t kdim = c * kh * kw;
    const int64_t ohw = oh * ow;
    const bool gemm_direct = pointwiseConv(kh, kw, stride, pad);

    const DType dt = w.dtype();
    // The i8 path needs both operands quantized (i32 accumulation);
    // bf16/f16 cast the input only when asked (the bandwidth knob).
    const bool lower_input = (dt == DType::I8) || cast_input;
    const Tensor xq = lower_input ? castTo(x, dt) : Tensor();

    Tensor out(Shape{n, oc, oh, ow});
    const float *pb = b.defined() ? b.data() : nullptr;
    float *po = out.data();

    if (dt == DType::I8) {
        const float dequant = xq.quantScale() * w.quantScale();
        const int8_t *px = xq.i8Data();
        const int8_t *pw = w.i8Data();
        const auto run_image = [&](int64_t ni, int8_t *col) {
            const int8_t *xb = px + ni * c * h * wd;
            const int8_t *cols = xb;
            if (!gemm_direct) {
                im2colT<int8_t>(xb, col, c, h, wd, kh, kw, oh, ow,
                                stride, pad);
                cols = col;
            }
            convI8Image(cols, pw, pb, po + ni * oc * ohw, oc, kdim, ohw,
                        dequant, act);
        };
        if (n >= core::numThreads()) {
            core::parallelFor(0, n, 1, [&](int64_t n0, int64_t n1) {
                std::vector<int8_t> col(
                    gemm_direct ? 0 : static_cast<size_t>(kdim * ohw));
                for (int64_t ni = n0; ni < n1; ++ni)
                    run_image(ni, col.data());
            });
        } else {
            std::vector<int8_t> col(
                gemm_direct ? 0 : static_cast<size_t>(kdim * ohw));
            for (int64_t ni = 0; ni < n; ++ni)
                run_image(ni, col.data());
        }
    } else {
        const detail::DtOperand oa{w.rawData(), kdim, 1, dt, 1.0f};
        const uint16_t *pxq = lower_input ? xq.u16Data() : nullptr;
        const float *pxf = lower_input ? nullptr : x.data();
        const auto run_image = [&](int64_t ni, void *col) {
            float *ob = po + ni * oc * ohw;
            detail::DtOperand obp{nullptr, ohw, 1, DType::F32, 1.0f};
            if (lower_input) {
                const uint16_t *xb = pxq + ni * c * h * wd;
                const uint16_t *cols = xb;
                if (!gemm_direct) {
                    uint16_t *c16 = static_cast<uint16_t *>(col);
                    im2colT<uint16_t>(xb, c16, c, h, wd, kh, kw, oh, ow,
                                      stride, pad);
                    cols = c16;
                }
                obp = detail::DtOperand{cols, ohw, 1, dt, 1.0f};
            } else {
                const float *xb = pxf + ni * c * h * wd;
                const float *cols = xb;
                if (!gemm_direct) {
                    float *cf = static_cast<float *>(col);
                    im2col(xb, cf, c, h, wd, kh, kw, oh, ow, stride, pad);
                    cols = cf;
                }
                obp = detail::DtOperand{cols, ohw, 1, DType::F32, 1.0f};
            }
            if (pb) {
                core::parallelFor(0, oc, 8, [&](int64_t o0, int64_t o1) {
                    for (int64_t o = o0; o < o1; ++o)
                        std::fill(ob + o * ohw, ob + (o + 1) * ohw,
                                  pb[o]);
                });
            } else {
                std::fill(ob, ob + oc * ohw, 0.0f);
            }
            if (act == ActKind::None) {
                detail::gemmBlockedDt(oa, obp, ob, oc, kdim, ohw);
            } else {
                const detail::Epilogue epi{nullptr, act};
                detail::gemmBlockedDt(oa, obp, ob, oc, kdim, ohw, &epi);
            }
        };
        const size_t col_elems =
            gemm_direct ? 0 : static_cast<size_t>(kdim * ohw);
        if (n >= core::numThreads()) {
            core::parallelFor(0, n, 1, [&](int64_t n0, int64_t n1) {
                std::vector<uint16_t> col16(lower_input ? col_elems : 0);
                std::vector<float> colf(lower_input ? 0 : col_elems);
                void *col = lower_input
                                ? static_cast<void *>(col16.data())
                                : static_cast<void *>(colf.data());
                for (int64_t ni = n0; ni < n1; ++ni)
                    run_image(ni, col);
            });
        } else {
            std::vector<uint16_t> col16(lower_input ? col_elems : 0);
            std::vector<float> colf(lower_input ? 0 : col_elems);
            void *col = lower_input ? static_cast<void *>(col16.data())
                                    : static_cast<void *>(colf.data());
            for (int64_t ni = 0; ni < n; ++ni)
                run_image(ni, col);
        }
    }

    const uint64_t flops = 2ULL * static_cast<uint64_t>(n * oc * oh * ow) *
                           static_cast<uint64_t>(kdim) +
                           static_cast<uint64_t>(out.numel()) *
                               actFlops(act);
    const Tensor &xin = lower_input ? xq : x;
    trace::emitKernel(trace::KernelClass::Conv, convDtName(dt, lower_input),
                      flops,
                      xin.bytes() + w.bytes() +
                          (b.defined() ? b.bytes() : 0),
                      out.bytes());
    return out;
}

Tensor
conv2dGradInput(const Tensor &grad_out, const Tensor &w,
                const Shape &x_shape, int stride, int pad)
{
    const int64_t n = x_shape[0], c = x_shape[1], h = x_shape[2],
                  wd = x_shape[3];
    const int64_t oc = w.size(0);
    const int kh = static_cast<int>(w.size(2));
    const int kw = static_cast<int>(w.size(3));
    const int64_t oh = grad_out.size(2), ow = grad_out.size(3);
    const bool gemm_direct = pointwiseConv(kh, kw, stride, pad);
    const size_t col_elems =
        gemm_direct ? 0 : static_cast<size_t>(c * kh * kw) * oh * ow;

    Tensor gx = Tensor::zeros(x_shape);
    const float *pg = grad_out.data();
    const float *pw = w.data();
    float *px = gx.data();

    // Each image owns a disjoint gx slab. With at least as many images
    // as threads they run in parallel; otherwise one inline chunk (a
    // grain of n) runs them in turn, parallel inside the GEMM and
    // col2im.
    const int64_t grain = n >= core::numThreads() ? 1 : n;
    core::parallelFor(0, n, grain, [&](int64_t n0, int64_t n1) {
        std::vector<float> gcol(col_elems);
        for (int64_t ni = n0; ni < n1; ++ni)
            convGradInputImage(pg + ni * oc * oh * ow, pw,
                               px + ni * c * h * wd, gcol.data(), c, h, wd,
                               oc, kh, kw, oh, ow, stride, pad);
    });

    const uint64_t flops = 2ULL * static_cast<uint64_t>(n * oc * oh * ow) *
                           static_cast<uint64_t>(c * kh * kw);
    trace::emitKernel(trace::KernelClass::Conv, "conv2d_dgrad", flops,
                      grad_out.bytes() + w.bytes(), gx.bytes());
    return gx;
}

Tensor
conv2dGradWeight(const Tensor &grad_out, const Tensor &x,
                 const Shape &w_shape, int stride, int pad)
{
    const int64_t n = x.size(0), c = x.size(1), h = x.size(2),
                  wd = x.size(3);
    const int64_t oc = w_shape[0];
    const int kh = static_cast<int>(w_shape[2]);
    const int kw = static_cast<int>(w_shape[3]);
    const int64_t oh = grad_out.size(2), ow = grad_out.size(3);
    const int64_t kdim = c * kh * kw;
    const int64_t ohw = oh * ow;

    Tensor gw = Tensor::zeros(w_shape);
    const float *pg = grad_out.data();
    const float *px = x.data();
    float *pw = gw.data();

    // Images run in groups: one image per worker when there are enough
    // images, otherwise one at a time (a one-index range runs inline),
    // parallel inside im2col and the GEMM. Each image's GEMM writes its
    // own partial; the partials then fold into gw in image order, so
    // every weight sums its images in the same order for any thread
    // count, and scratch stays at one partial per thread.
    const int64_t group = n >= core::numThreads() ? core::numThreads() : 1;
    const bool gemm_direct = pointwiseConv(kh, kw, stride, pad);
    std::vector<float> cols(
        gemm_direct ? 0 : static_cast<size_t>(group * kdim * ohw));
    std::vector<float> parts(static_cast<size_t>(group * kdim * oc));
    for (int64_t g0 = 0; g0 < n; g0 += group) {
        const int64_t g1 = std::min(n, g0 + group);
        core::parallelFor(g0, g1, 1, [&](int64_t n0, int64_t n1) {
            for (int64_t ni = n0; ni < n1; ++ni) {
                const int64_t slot = ni - g0;
                float *col = gemm_direct ? nullptr
                                         : cols.data() + slot * kdim * ohw;
                convGradWeightImage(pg + ni * oc * ohw,
                                    px + ni * c * h * wd,
                                    parts.data() + slot * kdim * oc, col, c,
                                    h, wd, oc, kh, kw, oh, ow, stride, pad);
            }
        });
        core::parallelFor(0, oc, 1, [&](int64_t o0, int64_t o1) {
            for (int64_t o = o0; o < o1; ++o) {
                float *wrow = pw + o * kdim;
                for (int64_t r = 0; r < kdim; ++r) {
                    float acc = wrow[r];
                    for (int64_t s = 0; s < g1 - g0; ++s)
                        acc += parts[(s * kdim + r) * oc + o];
                    wrow[r] = acc;
                }
            }
        });
    }

    const uint64_t flops = 2ULL * static_cast<uint64_t>(n * oc * oh * ow) *
                           static_cast<uint64_t>(c * kh * kw);
    trace::emitKernel(trace::KernelClass::Conv, "conv2d_wgrad", flops,
                      grad_out.bytes() + x.bytes(), gw.bytes());
    return gw;
}

Tensor
conv2dReference(const Tensor &x, const Tensor &w, const Tensor &b,
                int stride, int pad)
{
    MM_ASSERT(x.ndim() == 4 && w.ndim() == 4,
              "conv2dReference needs NCHW x OIHW");
    const int64_t n = x.size(0), c = x.size(1), h = x.size(2),
                  wd = x.size(3);
    const int64_t oc = w.size(0);
    const int kh = static_cast<int>(w.size(2));
    const int kw = static_cast<int>(w.size(3));
    const int64_t oh = outExtent(h, kh, stride, pad);
    const int64_t ow = outExtent(wd, kw, stride, pad);

    Tensor out(Shape{n, oc, oh, ow});
    const float *px = x.data();
    const float *pw = w.data();
    const float *pb = b.defined() ? b.data() : nullptr;
    float *po = out.data();
    for (int64_t ni = 0; ni < n; ++ni)
        convDirectImage(px + ni * c * h * wd, pw, pb,
                        po + ni * oc * oh * ow, c, h, wd, oc, kh, kw,
                        oh, ow, stride, pad);
    return out;
}

Tensor
conv2dGradInputReference(const Tensor &grad_out, const Tensor &w,
                         const Shape &x_shape, int stride, int pad)
{
    const int64_t n = x_shape[0], c = x_shape[1], h = x_shape[2],
                  wd = x_shape[3];
    const int64_t oc = w.size(0);
    const int kh = static_cast<int>(w.size(2));
    const int kw = static_cast<int>(w.size(3));
    const int64_t oh = grad_out.size(2), ow = grad_out.size(3);

    Tensor gx = Tensor::zeros(x_shape);
    const float *pg = grad_out.data();
    const float *pw = w.data();
    float *px = gx.data();

    // Parallel over images: each image owns a disjoint gx slab.
    core::parallelFor(0, n, 1, [&](int64_t n0, int64_t n1) {
    for (int64_t ni = n0; ni < n1; ++ni) {
        const float *gb = pg + ni * oc * oh * ow;
        float *xb = px + ni * c * h * wd;
        for (int64_t o = 0; o < oc; ++o) {
            const float *gplane = gb + o * oh * ow;
            const float *wb = pw + o * c * kh * kw;
            for (int64_t y = 0; y < oh; ++y) {
                for (int64_t xo = 0; xo < ow; ++xo) {
                    const float g = gplane[y * ow + xo];
                    const int64_t iy0 = y * stride - pad;
                    const int64_t ix0 = xo * stride - pad;
                    for (int64_t ci = 0; ci < c; ++ci) {
                        float *xplane = xb + ci * h * wd;
                        const float *wplane = wb + ci * kh * kw;
                        for (int ky = 0; ky < kh; ++ky) {
                            const int64_t iy = iy0 + ky;
                            if (iy < 0 || iy >= h)
                                continue;
                            for (int kx = 0; kx < kw; ++kx) {
                                const int64_t ix = ix0 + kx;
                                if (ix < 0 || ix >= wd)
                                    continue;
                                xplane[iy * wd + ix] +=
                                    g * wplane[ky * kw + kx];
                            }
                        }
                    }
                }
            }
        }
    }
    });
    return gx;
}

Tensor
conv2dGradWeightReference(const Tensor &grad_out, const Tensor &x,
                          const Shape &w_shape, int stride, int pad)
{
    const int64_t n = x.size(0), c = x.size(1), h = x.size(2),
                  wd = x.size(3);
    const int64_t oc = w_shape[0];
    const int kh = static_cast<int>(w_shape[2]);
    const int kw = static_cast<int>(w_shape[3]);
    const int64_t oh = grad_out.size(2), ow = grad_out.size(3);

    Tensor gw = Tensor::zeros(w_shape);
    const float *pg = grad_out.data();
    const float *px = x.data();
    float *pw = gw.data();

    // Parallel over output channels: each owns a disjoint gw slab.
    // The image loop stays innermost (and sequential) so accumulation
    // order per weight is fixed for any thread count.
    core::parallelFor(0, oc, 1, [&](int64_t o0, int64_t o1) {
    for (int64_t o = o0; o < o1; ++o) {
        float *wb = pw + o * c * kh * kw;
        for (int64_t ni = 0; ni < n; ++ni) {
            const float *gplane = pg + (ni * oc + o) * oh * ow;
            const float *xb = px + ni * c * h * wd;
            for (int64_t y = 0; y < oh; ++y) {
                for (int64_t xo = 0; xo < ow; ++xo) {
                    const float g = gplane[y * ow + xo];
                    const int64_t iy0 = y * stride - pad;
                    const int64_t ix0 = xo * stride - pad;
                    for (int64_t ci = 0; ci < c; ++ci) {
                        const float *xplane = xb + ci * h * wd;
                        float *wplane = wb + ci * kh * kw;
                        for (int ky = 0; ky < kh; ++ky) {
                            const int64_t iy = iy0 + ky;
                            if (iy < 0 || iy >= h)
                                continue;
                            for (int kx = 0; kx < kw; ++kx) {
                                const int64_t ix = ix0 + kx;
                                if (ix < 0 || ix >= wd)
                                    continue;
                                wplane[ky * kw + kx] +=
                                    g * xplane[iy * wd + ix];
                            }
                        }
                    }
                }
            }
        }
    }
    });
    return gw;
}

Tensor
maxpool2d(const Tensor &x, int kernel, int stride, Tensor *indices)
{
    MM_ASSERT(x.ndim() == 4, "maxpool2d needs NCHW");
    const int64_t n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
    const int64_t oh = outExtent(h, kernel, stride, 0);
    const int64_t ow = outExtent(w, kernel, stride, 0);

    Tensor out(Shape{n, c, oh, ow});
    if (indices)
        *indices = Tensor(Shape{n, c, oh, ow});
    const float *px = x.data();
    float *po = out.data();
    float *pi = indices ? indices->data() : nullptr;

    core::parallelFor(0, n * c, 4, [&](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
        const float *plane = px + p * h * w;
        float *oplane = po + p * oh * ow;
        float *iplane = pi ? pi + p * oh * ow : nullptr;
        for (int64_t y = 0; y < oh; ++y) {
            for (int64_t xo = 0; xo < ow; ++xo) {
                float best = -std::numeric_limits<float>::infinity();
                int64_t best_idx = 0;
                for (int ky = 0; ky < kernel; ++ky) {
                    for (int kx = 0; kx < kernel; ++kx) {
                        const int64_t iy = y * stride + ky;
                        const int64_t ix = xo * stride + kx;
                        if (iy >= h || ix >= w)
                            continue;
                        const int64_t flat = iy * w + ix;
                        if (plane[flat] > best) {
                            best = plane[flat];
                            best_idx = flat;
                        }
                    }
                }
                oplane[y * ow + xo] = best;
                if (iplane) {
                    iplane[y * ow + xo] =
                        static_cast<float>(p * h * w + best_idx);
                }
            }
        }
    }
    });
    trace::emitKernel(trace::KernelClass::Pooling, "maxpool2d",
                      static_cast<uint64_t>(n * c * oh * ow) *
                          static_cast<uint64_t>(kernel * kernel),
                      x.bytes(), out.bytes());
    return out;
}

Tensor
maxpool2dBackward(const Tensor &grad_out, const Tensor &indices,
                  const Shape &x_shape)
{
    Tensor gx = Tensor::zeros(x_shape);
    const float *pg = grad_out.data();
    const float *pi = indices.data();
    float *px = gx.data();
    const int64_t n = grad_out.numel();
    for (int64_t i = 0; i < n; ++i)
        px[static_cast<int64_t>(pi[i])] += pg[i];
    trace::emitKernel(trace::KernelClass::Pooling, "maxpool2d_backward",
                      static_cast<uint64_t>(n),
                      grad_out.bytes() + indices.bytes(), gx.bytes());
    return gx;
}

Tensor
avgpool2d(const Tensor &x, int kernel, int stride)
{
    MM_ASSERT(x.ndim() == 4, "avgpool2d needs NCHW");
    const int64_t n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
    const int64_t oh = outExtent(h, kernel, stride, 0);
    const int64_t ow = outExtent(w, kernel, stride, 0);
    const float inv = 1.0f / static_cast<float>(kernel * kernel);

    Tensor out(Shape{n, c, oh, ow});
    const float *px = x.data();
    float *po = out.data();
    core::parallelFor(0, n * c, 4, [&](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
        const float *plane = px + p * h * w;
        float *oplane = po + p * oh * ow;
        for (int64_t y = 0; y < oh; ++y) {
            for (int64_t xo = 0; xo < ow; ++xo) {
                float acc = 0.0f;
                for (int ky = 0; ky < kernel; ++ky) {
                    for (int kx = 0; kx < kernel; ++kx) {
                        const int64_t iy = y * stride + ky;
                        const int64_t ix = xo * stride + kx;
                        if (iy < h && ix < w)
                            acc += plane[iy * w + ix];
                    }
                }
                oplane[y * ow + xo] = acc * inv;
            }
        }
    }
    });
    trace::emitKernel(trace::KernelClass::Pooling, "avgpool2d",
                      static_cast<uint64_t>(n * c * oh * ow) *
                          static_cast<uint64_t>(kernel * kernel),
                      x.bytes(), out.bytes());
    return out;
}

Tensor
avgpool2dBackward(const Tensor &grad_out, const Shape &x_shape, int kernel,
                  int stride)
{
    const int64_t h = x_shape[2], w = x_shape[3];
    const int64_t oh = grad_out.size(2), ow = grad_out.size(3);
    const int64_t planes = x_shape[0] * x_shape[1];
    const float inv = 1.0f / static_cast<float>(kernel * kernel);

    Tensor gx = Tensor::zeros(x_shape);
    const float *pg = grad_out.data();
    float *px = gx.data();
    for (int64_t p = 0; p < planes; ++p) {
        const float *gplane = pg + p * oh * ow;
        float *xplane = px + p * h * w;
        for (int64_t y = 0; y < oh; ++y) {
            for (int64_t xo = 0; xo < ow; ++xo) {
                const float g = gplane[y * ow + xo] * inv;
                for (int ky = 0; ky < kernel; ++ky) {
                    for (int kx = 0; kx < kernel; ++kx) {
                        const int64_t iy = y * stride + ky;
                        const int64_t ix = xo * stride + kx;
                        if (iy < h && ix < w)
                            xplane[iy * w + ix] += g;
                    }
                }
            }
        }
    }
    trace::emitKernel(trace::KernelClass::Pooling, "avgpool2d_backward",
                      static_cast<uint64_t>(grad_out.numel()) *
                          static_cast<uint64_t>(kernel * kernel),
                      grad_out.bytes(), gx.bytes());
    return gx;
}

Tensor
globalAvgPool(const Tensor &x)
{
    MM_ASSERT(x.ndim() == 4, "globalAvgPool needs NCHW");
    const int64_t n = x.size(0), c = x.size(1);
    const int64_t spatial = x.size(2) * x.size(3);
    Tensor out(Shape{n, c});
    const float *px = x.data();
    float *po = out.data();
    core::parallelFor(0, n * c, 4, [&](int64_t p0, int64_t p1) {
        for (int64_t p = p0; p < p1; ++p) {
            double acc = 0.0;
            const float *plane = px + p * spatial;
            for (int64_t i = 0; i < spatial; ++i)
                acc += plane[i];
            po[p] =
                static_cast<float>(acc / static_cast<double>(spatial));
        }
    });
    trace::emitKernel(trace::KernelClass::Pooling, "global_avgpool",
                      static_cast<uint64_t>(x.numel()), x.bytes(),
                      out.bytes());
    return out;
}

Tensor
upsampleNearest2x(const Tensor &x)
{
    MM_ASSERT(x.ndim() == 4, "upsampleNearest2x needs NCHW");
    const int64_t n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
    Tensor out(Shape{n, c, h * 2, w * 2});
    const float *px = x.data();
    float *po = out.data();
    const int64_t ow = w * 2;
    core::parallelFor(0, n * c, 4, [&](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
        const float *plane = px + p * h * w;
        float *oplane = po + p * h * 2 * ow;
        for (int64_t y = 0; y < h; ++y) {
            for (int64_t xo = 0; xo < w; ++xo) {
                const float v = plane[y * w + xo];
                float *dst = oplane + (y * 2) * ow + xo * 2;
                dst[0] = v;
                dst[1] = v;
                dst[ow] = v;
                dst[ow + 1] = v;
            }
        }
    }
    });
    trace::emitKernel(trace::KernelClass::Pooling, "upsample_nearest2x", 0,
                      x.bytes(), out.bytes());
    return out;
}

Tensor
upsampleNearest2xBackward(const Tensor &grad_out)
{
    MM_ASSERT(grad_out.ndim() == 4 && grad_out.size(2) % 2 == 0 &&
                  grad_out.size(3) % 2 == 0,
              "upsampleNearest2xBackward needs even NCHW spatial dims");
    const int64_t n = grad_out.size(0), c = grad_out.size(1);
    const int64_t h = grad_out.size(2) / 2, w = grad_out.size(3) / 2;
    Tensor gx(Shape{n, c, h, w});
    const float *pg = grad_out.data();
    float *px = gx.data();
    const int64_t ow = w * 2;
    for (int64_t p = 0; p < n * c; ++p) {
        const float *gplane = pg + p * h * 2 * ow;
        float *xplane = px + p * h * w;
        for (int64_t y = 0; y < h; ++y) {
            for (int64_t xo = 0; xo < w; ++xo) {
                const float *src = gplane + (y * 2) * ow + xo * 2;
                xplane[y * w + xo] =
                    src[0] + src[1] + src[ow] + src[ow + 1];
            }
        }
    }
    trace::emitKernel(trace::KernelClass::Pooling,
                      "upsample_nearest2x_backward",
                      static_cast<uint64_t>(grad_out.numel()),
                      grad_out.bytes(), gx.bytes());
    return gx;
}

} // namespace tensor
} // namespace mmbench
