// Tests for the packed tiled GEMM engine and the implicit-im2col
// convolution path: golden parity against naive references over
// randomized shapes (including sub-tile, prime and k=0 extents), epilogue
// semantics, the spectral mixing kernel, float workspace pooling,
// cross-thread-count bitwise determinism of conv2d forward/backward, and
// exact agreement of the conv core (gather-free strip feed and stride-2
// gather alike) with a k-ordered float reference.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>
#include <tuple>
#include <vector>

#include "autograd/capture.h"
#include "autograd/grad_mode.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "runtime/thread_pool.h"
#include "runtime/workspace.h"
#include "tensor/gemm.h"
#include "tensor/gemm_kernels.h"
#include "tensor/prepack.h"
#include "tensor/tensor.h"
#include "test_util.h"

namespace litho {
namespace {

// Naive k-ordered references. The engine promises the same per-element
// accumulation order, so parity should be exact at default build flags —
// but the tolerance below allows for multiply-add fusion differences under
// -DDOINN_NATIVE_ARCH=ON (-march=native enables FMA contraction, which may
// apply differently to this loop and the engine's kernels).
void ref_gemm(GemmLayout layout, const float* a, const float* b, float* c,
              int64_t m, int64_t k, int64_t n, bool accumulate = false,
              bool subtract = false, const float* bias = nullptr) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = accumulate ? c[i * n + j] : 0.f;
      for (int64_t kk = 0; kk < k; ++kk) {
        float av, bv;
        switch (layout) {
          case GemmLayout::kNN:
            av = a[i * k + kk];
            bv = b[kk * n + j];
            break;
          case GemmLayout::kTN:
            av = a[kk * m + i];
            bv = b[kk * n + j];
            break;
          default:  // kNT
            av = a[i * k + kk];
            bv = b[j * k + kk];
            break;
        }
        if (subtract) {
          acc -= av * bv;
        } else {
          acc += av * bv;
        }
      }
      c[i * n + j] = acc + (bias ? bias[i] : 0.f);
    }
  }
}

float tol_for(int64_t k) {
  // Zero at default flags; the scale term keeps the native-arch CI job
  // (FMA contraction) honest without hiding real bugs.
  return 1e-5f * static_cast<float>(std::max<int64_t>(k, 1));
}

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, AllLayoutsMatchNaive) {
  const auto [m, k, n] = GetParam();
  auto g = test::rng(static_cast<uint32_t>(m * 7919 + k * 131 + n));
  for (GemmLayout layout :
       {GemmLayout::kNN, GemmLayout::kTN, GemmLayout::kNT}) {
    Shape ashape = layout == GemmLayout::kTN ? Shape{k, m} : Shape{m, k};
    Shape bshape = layout == GemmLayout::kNT ? Shape{n, k} : Shape{k, n};
    Tensor a = Tensor::randn(ashape, g);
    Tensor b = Tensor::randn(bshape, g);
    Tensor c({m, n}), ref({m, n});
    packed_gemm(layout, a.data(), b.data(), c.data(), m, k, n);
    ref_gemm(layout, a.data(), b.data(), ref.data(), m, k, n);
    EXPECT_LE(test::max_abs_diff(c, ref), tol_for(k))
        << "layout " << static_cast<int>(layout) << " shape " << m << "x" << k
        << "x" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GemmShapes,
    ::testing::Values(
        // Smaller than one 4x8 micro-tile in every dimension.
        std::tuple{1, 1, 1}, std::tuple{3, 2, 5}, std::tuple{2, 7, 3},
        // Primes around the tile/block boundaries.
        std::tuple{7, 13, 17}, std::tuple{11, 37, 29}, std::tuple{13, 97, 31},
        // Exact tile multiples and the parallel block boundary.
        std::tuple{8, 64, 256}, std::tuple{16, 32, 257}, std::tuple{4, 8, 512},
        // k = 0: beta-0 semantics must still zero C.
        std::tuple{5, 0, 9}, std::tuple{1, 0, 1},
        // Deep K exercising multiple kGemmKC steps and the fused-pack path.
        std::tuple{9, 1031, 61}, std::tuple{32, 600, 300}));

TEST(Gemm, KZeroOverwritesDirtyOutput) {
  Tensor c = Tensor::full({3, 4}, 7.f);
  Tensor a({3, 0}), b({0, 4});
  gemm(a.data(), b.data(), c.data(), 3, 0, 4);
  for (int64_t i = 0; i < c.numel(); ++i) EXPECT_EQ(c[i], 0.f);
}

TEST(Gemm, EpilogueAccumulateSubtractBias) {
  auto g = test::rng(11);
  const int64_t m = 6, k = 23, n = 19;
  Tensor a = Tensor::randn({m, k}, g), b = Tensor::randn({k, n}, g);
  Tensor bias = Tensor::randn({m}, g);

  Tensor c = Tensor::ones({m, n});
  Tensor ref = Tensor::ones({m, n});
  GemmEpilogue acc;
  acc.accumulate = true;
  packed_gemm(GemmLayout::kNN, a.data(), b.data(), c.data(), m, k, n, acc);
  ref_gemm(GemmLayout::kNN, a.data(), b.data(), ref.data(), m, k, n, true);
  EXPECT_LE(test::max_abs_diff(c, ref), tol_for(k));

  GemmEpilogue sub;
  sub.accumulate = true;
  sub.subtract = true;
  packed_gemm(GemmLayout::kNN, a.data(), b.data(), c.data(), m, k, n, sub);
  ref_gemm(GemmLayout::kNN, a.data(), b.data(), ref.data(), m, k, n, true,
           true);
  EXPECT_LE(test::max_abs_diff(c, ref), tol_for(k));

  GemmEpilogue be;
  be.bias = bias.data();
  packed_gemm(GemmLayout::kNN, a.data(), b.data(), c.data(), m, k, n, be);
  ref_gemm(GemmLayout::kNN, a.data(), b.data(), ref.data(), m, k, n, false,
           false, bias.data());
  EXPECT_LE(test::max_abs_diff(c, ref), tol_for(k));
}

TEST(Gemm, PrepackedColBlockApiMatchesFullGemm) {
  auto g = test::rng(5);
  const int64_t m = 12, k = 70, n = 333;
  Tensor a = Tensor::randn({m, k}, g), b = Tensor::randn({k, n}, g);
  Tensor full({m, n}), blocked({m, n});
  packed_gemm(GemmLayout::kNN, a.data(), b.data(), full.data(), m, k, n);

  const PackedA pa(GemmLayout::kNN, a.data(), m, k);
  const StridedBPacker bp(b.data(), n, false);
  for (int64_t blk = 0; blk < gemm_col_blocks(n); ++blk) {
    gemm_col_block(pa, bp, n, blk, blocked.data());
  }
  EXPECT_EQ(test::max_abs_diff(full, blocked), 0.f);

  // On-the-fly A packing must agree bitwise with the pre-packed path.
  Tensor onfly({m, n});
  for (int64_t blk = 0; blk < gemm_col_blocks(n); ++blk) {
    gemm_col_block(GemmLayout::kNN, a.data(), m, k, bp, n, blk, onfly.data());
  }
  EXPECT_EQ(test::max_abs_diff(full, onfly), 0.f);
}

TEST(Gemm, BitwiseDeterministicAcrossThreadCounts) {
  auto g = test::rng(17);
  const int64_t m = 21, k = 130, n = 1030;
  Tensor a = Tensor::randn({m, k}, g), b = Tensor::randn({k, n}, g);
  Tensor c1({m, n}), c8({m, n});
  {
    runtime::ThreadPool serial(1);
    runtime::ScopedPool sp(&serial);
    packed_gemm(GemmLayout::kNN, a.data(), b.data(), c1.data(), m, k, n);
  }
  {
    runtime::ThreadPool wide(8);
    runtime::ScopedPool sp(&wide);
    packed_gemm(GemmLayout::kNN, a.data(), b.data(), c8.data(), m, k, n);
  }
  EXPECT_EQ(test::max_abs_diff(c1, c8), 0.f);
}

TEST(Gemm, LegacyEntryPointsStillAgree) {
  auto g = test::rng(23);
  const int64_t m = 10, k = 40, n = 55;
  Tensor a = Tensor::randn({m, k}, g), b = Tensor::randn({k, n}, g);
  Tensor ref({m, n});
  gemm(a.data(), b.data(), ref.data(), m, k, n);

  Tensor at = a.transpose2d(), c1({m, n});
  gemm_at_b(at.data(), b.data(), c1.data(), m, k, n);
  EXPECT_LE(test::max_abs_diff(ref, c1), tol_for(k));

  Tensor bt = b.transpose2d(), c2({m, n});
  gemm_a_bt(a.data(), bt.data(), c2.data(), m, k, n);
  EXPECT_LE(test::max_abs_diff(ref, c2), tol_for(k));
}

// The runtime dispatcher picks the AVX2 kernel table on AVX2 hosts, which
// would otherwise leave the portable baseline table untested on every CI
// runner. Feed both tables identical hand-packed panels and require exact
// agreement with each other and a k-ordered reference — this is also the
// direct statement of the "AVX2 without FMA rounds like scalar" claim the
// dispatcher's bitwise contract rests on.
TEST(Gemm, BaselineAndDispatchedKernelTablesAgreeBitwise) {
  auto g = test::rng(67);
  const int64_t klen = 37;
  Tensor a = Tensor::randn({klen, kGemmMR}, g);   // packed A panel, k-major
  Tensor b = Tensor::randn({klen, kGemmNR}, g);   // packed B micro-panel
  Tensor bias = Tensor::randn({kGemmMR}, g);

  Tensor ref({kGemmMR, kGemmNR});
  for (int64_t r = 0; r < kGemmMR; ++r) {
    for (int64_t j = 0; j < kGemmNR; ++j) {
      float acc = 0.f;
      for (int64_t kk = 0; kk < klen; ++kk) {
        acc += a[kk * kGemmMR + r] * b[kk * kGemmNR + j];
      }
      ref[r * kGemmNR + j] = acc + bias[r];
    }
  }

  // In the portable build neither table may fuse multiply-adds, so they
  // must agree exactly. Under -march=native (DOINN_NATIVE_ARCH) the
  // baseline TU's generic body may legally FMA-contract while the
  // intrinsic table never does, so allow rounding-scale slack there.
#if defined(__FMA__)
  const float ktol = tol_for(klen);
#else
  const float ktol = 0.f;
#endif
  const detail::MicroKernelTable& base = detail::baseline_kernels();
  const detail::MicroKernelTable& disp = detail::micro_kernels();
  Tensor c_base({kGemmMR, kGemmNR}), c_disp({kGemmMR, kGemmNR});
  base.add(klen, a.data(), b.data(), kGemmNR, c_base.data(), kGemmNR,
           /*init=*/true, bias.data());
  disp.add(klen, a.data(), b.data(), kGemmNR, c_disp.data(), kGemmNR,
           /*init=*/true, bias.data());
  EXPECT_LE(test::max_abs_diff(c_base, c_disp), ktol);
  EXPECT_LE(test::max_abs_diff(c_base, ref), tol_for(klen));

  // Edge variant: a ragged 3 x 5 sub-tile must agree the same way.
  Tensor e_base = Tensor::full({kGemmMR, kGemmNR}, -1.f);
  Tensor e_disp = Tensor::full({kGemmMR, kGemmNR}, -1.f);
  base.add_edge(klen, a.data(), b.data(), kGemmNR, e_base.data(), kGemmNR, 3,
                5, /*init=*/true, nullptr);
  disp.add_edge(klen, a.data(), b.data(), kGemmNR, e_disp.data(), kGemmNR, 3,
                5, /*init=*/true, nullptr);
  EXPECT_LE(test::max_abs_diff(e_base, e_disp), ktol);

  // Subtract variant.
  Tensor s_base = Tensor::ones({kGemmMR, kGemmNR});
  Tensor s_disp = Tensor::ones({kGemmMR, kGemmNR});
  base.sub(klen, a.data(), b.data(), kGemmNR, s_base.data(), kGemmNR,
           /*init=*/false, nullptr);
  disp.sub(klen, a.data(), b.data(), kGemmNR, s_disp.data(), kGemmNR,
           /*init=*/false, nullptr);
  EXPECT_LE(test::max_abs_diff(s_base, s_disp), ktol);

  // Offset-addressed variants (gather-free conv feed): B row kk is read at
  // strip + koff[kk]. Scatter the panel rows through a strip with a
  // non-uniform offset table (4*NR wide for the m = 1 row kernel) and
  // require the same bits as the packed-panel kernel.
  constexpr int64_t kRow = 4 * kGemmNR;
  std::vector<int32_t> koff(static_cast<size_t>(klen));
  for (int64_t kk = 0; kk < klen; ++kk) {
    koff[static_cast<size_t>(kk)] =
        static_cast<int32_t>((klen - 1 - kk) * (kRow + 3) + kk % 3);
  }
  Tensor wide = Tensor::randn({klen, kRow}, g);  // B(kk, 0..4*NR)
  std::vector<float> strip(static_cast<size_t>(klen * (kRow + 3) + kRow), 0.f);
  for (int64_t kk = 0; kk < klen; ++kk) {
    for (int64_t j = 0; j < kRow; ++j) {
      strip[static_cast<size_t>(koff[static_cast<size_t>(kk)] + j)] =
          wide[kk * kRow + j];
    }
  }
  Tensor tile0({klen, kGemmNR}), tile1({klen, kGemmNR});
  for (int64_t kk = 0; kk < klen; ++kk) {
    for (int64_t j = 0; j < kGemmNR; ++j) {
      tile0[kk * kGemmNR + j] = wide[kk * kRow + j];
      tile1[kk * kGemmNR + j] = wide[kk * kRow + kGemmNR + j];
    }
  }
  Tensor want({kGemmMR, kGemmNR});
  base.add(klen, a.data(), tile0.data(), kGemmNR, want.data(), kGemmNR,
           /*init=*/true, bias.data());
  for (const detail::MicroKernelTable* t : {&base, &disp}) {
    Tensor got({kGemmMR, kGemmNR});
    t->add_off(klen, a.data(), strip.data(), koff.data(), got.data(), kGemmNR,
               /*init=*/true, bias.data());
    EXPECT_LE(test::max_abs_diff(got, want), ktol);

    Tensor edge = Tensor::full({kGemmMR, kGemmNR}, -1.f);
    t->add_off_edge(klen, a.data(), strip.data(), koff.data(), edge.data(),
                    kGemmNR, /*mr=*/3, /*init=*/true, bias.data());
    for (int64_t j = 0; j < kGemmNR; ++j) {
      for (int64_t r = 0; r < 3; ++r) {
        EXPECT_LE(std::abs(edge[r * kGemmNR + j] - want[r * kGemmNR + j]),
                  ktol);
      }
      EXPECT_EQ(edge[3 * kGemmNR + j], -1.f);  // untouched padded row
    }

    // m = 1 over four adjacent panels: row 0 of four single-tile calls.
    Tensor row({kRow});
    t->add_off_row4(klen, a.data(), strip.data(), koff.data(), row.data(),
                    /*init=*/true, bias.data());
    for (int64_t p = 0; p < 4; ++p) {
      Tensor panel({klen, kGemmNR}), one({kGemmMR, kGemmNR});
      for (int64_t kk = 0; kk < klen; ++kk) {
        for (int64_t j = 0; j < kGemmNR; ++j) {
          panel[kk * kGemmNR + j] = wide[kk * kRow + p * kGemmNR + j];
        }
      }
      base.add(klen, a.data(), panel.data(), kGemmNR, one.data(), kGemmNR,
               /*init=*/true, bias.data());
      for (int64_t j = 0; j < kGemmNR; ++j) {
        EXPECT_LE(std::abs(row[p * kGemmNR + j] - one[j]), ktol);
      }
    }
  }
  if (disp.add_off_pair != nullptr) {
    Tensor got({kGemmMR, 2 * kGemmNR}), want1({kGemmMR, kGemmNR});
    base.add(klen, a.data(), tile1.data(), kGemmNR, want1.data(), kGemmNR,
             /*init=*/true, bias.data());
    disp.add_off_pair(klen, a.data(), strip.data(), strip.data() + kGemmNR,
                      koff.data(), got.data(), 2 * kGemmNR, /*init=*/true,
                      bias.data());
    for (int64_t r = 0; r < kGemmMR; ++r) {
      for (int64_t j = 0; j < kGemmNR; ++j) {
        EXPECT_LE(std::abs(got[r * 2 * kGemmNR + j] - want[r * kGemmNR + j]),
                  ktol);
        EXPECT_LE(std::abs(got[r * 2 * kGemmNR + kGemmNR + j] -
                           want1[r * kGemmNR + j]),
                  ktol);
      }
    }
  }
}

// -- Convolution through the implicit-im2col path -----------------------------

Tensor naive_conv2d(const Tensor& x, const Tensor& w, const Tensor& bias,
                    int64_t stride, int64_t padding) {
  const int64_t n = x.size(0), cin = x.size(1), h = x.size(2), ww = x.size(3);
  const int64_t cout = w.size(0), kh = w.size(2);
  const int64_t oh = ag::conv_out_size(h, kh, stride, padding);
  const int64_t ow = ag::conv_out_size(ww, kh, stride, padding);
  Tensor out({n, cout, oh, ow});
  for (int64_t s = 0; s < n; ++s) {
    for (int64_t co = 0; co < cout; ++co) {
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          double acc = bias.numel() ? bias[co] : 0.0;
          for (int64_t ci = 0; ci < cin; ++ci) {
            for (int64_t ky = 0; ky < kh; ++ky) {
              for (int64_t kx = 0; kx < kh; ++kx) {
                const int64_t iy = oy * stride + ky - padding;
                const int64_t ix = ox * stride + kx - padding;
                if (iy < 0 || iy >= h || ix < 0 || ix >= ww) continue;
                acc += static_cast<double>(
                           x[((s * cin + ci) * h + iy) * ww + ix]) *
                       w[((co * cin + ci) * kh + ky) * kh + kx];
              }
            }
          }
          out[((s * cout + co) * oh + oy) * ow + ox] =
              static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

TEST(ConvGemm, ForwardMatchesNaiveConvolution) {
  auto g = test::rng(31);
  struct Case {
    int64_t n, cin, cout, hw, k, stride, pad;
  };
  const std::vector<Case> cases = {
      {2, 3, 5, 12, 3, 1, 1},   // 3x3 same-size
      {1, 4, 6, 13, 4, 2, 1},   // strided downsample, odd extent
      {3, 2, 4, 9, 1, 1, 0},    // 1x1 fast path
      {1, 1, 2, 7, 3, 1, 0},    // no padding
      {2, 5, 3, 8, 3, 1, 2},    // padding wider than usual
  };
  for (const Case& c : cases) {
    Tensor x = Tensor::randn({c.n, c.cin, c.hw, c.hw}, g);
    Tensor w = Tensor::randn({c.cout, c.cin, c.k, c.k}, g, 0.f, 0.5f);
    Tensor bias = Tensor::randn({c.cout}, g);
    const ag::Variable xv(x), wv(w), bv(bias);
    const Tensor out = ag::conv2d(xv, wv, bv, c.stride, c.pad).value();
    const Tensor ref = naive_conv2d(x, w, bias, c.stride, c.pad);
    EXPECT_LE(test::max_abs_diff(out, ref),
              tol_for(c.cin * c.k * c.k) * 4.f)
        << "case hw=" << c.hw << " k=" << c.k << " stride=" << c.stride;
  }
}

// The fp32 conv forward's per-element contract, stated directly: a float
// running sum over k = (channel, ky, kx) in increasing order, each term one
// multiply then one add (padding taps multiply zero), bias added last.
Tensor k_ordered_conv2d(const Tensor& x, const Tensor& w, const Tensor& bias,
                        int64_t stride, int64_t padding) {
  const int64_t n = x.size(0), cin = x.size(1), h = x.size(2), ww = x.size(3);
  const int64_t cout = w.size(0), kh = w.size(2);
  const int64_t oh = ag::conv_out_size(h, kh, stride, padding);
  const int64_t ow = ag::conv_out_size(ww, kh, stride, padding);
  Tensor out({n, cout, oh, ow});
  for (int64_t s = 0; s < n; ++s) {
    for (int64_t co = 0; co < cout; ++co) {
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          float acc = 0.f;
          for (int64_t ci = 0; ci < cin; ++ci) {
            for (int64_t ky = 0; ky < kh; ++ky) {
              for (int64_t kx = 0; kx < kh; ++kx) {
                const int64_t iy = oy * stride + ky - padding;
                const int64_t ix = ox * stride + kx - padding;
                const float xv =
                    (iy < 0 || iy >= h || ix < 0 || ix >= ww)
                        ? 0.f
                        : x[((s * cin + ci) * h + iy) * ww + ix];
                acc += w[((co * cin + ci) * kh + ky) * kh + kx] * xv;
              }
            }
          }
          out[((s * cout + co) * oh + oy) * ow + ox] = acc + bias[co];
        }
      }
    }
  }
  return out;
}

// Captures one prepacked conv and runs its replay closure with column-block
// width @p nc — the graph executor's path, including the capture-time
// gather and strip-offset tables.
Tensor replay_prepacked_conv(const ag::Variable& x, const ag::Variable& w,
                             const std::shared_ptr<const PackedWeight>& wp,
                             const ag::Variable& b, int64_t stride,
                             int64_t padding, int64_t nc) {
  ag::NoGradGuard no_grad;
  ag::GraphRecorder rec;
  rec.add_input(x);
  const ag::Variable out = ag::conv2d_prepacked(x, w, wp, b, stride, padding);
  rec.mark_output(out);
  const std::shared_ptr<ag::CapturedGraph> g = rec.finish();
  ag::CaptureNode& node = g->nodes.at(0);
  node.tuning->nc = nc;
  Tensor res = Tensor::full(out.shape(), -7.f);
  const float* ins[] = {x.value().data()};
  float* outs[] = {res.data()};
  node.run(ag::ReplayIO{ins, outs});
  return res;
}

TEST(ConvGemm, ConvCoreMatchesKOrderedReferenceBitwise) {
  struct Geometry {
    int64_t n, cin, h, w, k, stride, pad;
  };
  const std::vector<Geometry> geometries = {
      {2, 3, 7, 7, 3, 1, 1},     // width 7: tiles straddle output rows
      {1, 2, 5, 13, 3, 1, 1},    // width 13: blocks start mid-row
      {1, 2, 3, 128, 3, 1, 1},   // width 128: contiguous full tiles
      {2, 2, 6, 5, 3, 1, 1},     // width 5 < NR
      {1, 4, 1, 40, 3, 1, 1},    // h = 1: halo rows are all padding
      {1, 2, 2, 300, 3, 1, 1},   // blocks inside one output row
      {1, 3, 6, 9, 1, 1, 1},     // k = 1, pad 1 (not pointwise)
      {1, 2, 3, 4, 1, 1, 2},     // k = 1, pad 2: all-padding columns
      {2, 3, 8, 8, 3, 1, 0},     // k = 3, pad 0
      {1, 2, 7, 10, 3, 1, 2},    // k = 3, pad 2
      {1, 2, 9, 11, 5, 1, 2},    // k = 5, pad 2
      {1, 2, 9, 12, 5, 1, 0},    // k = 5, pad 0
      {1, 64, 4, 16, 3, 1, 1},   // CKK 576: two K steps through koff
      {2, 3, 13, 13, 4, 2, 1},   // stride 2: stays on the gather path
      {1, 2, 9, 9, 3, 2, 1},     // stride 2, 3x3
  };
#if defined(__FMA__)
  // -march=native may contract this TU's reference loop into FMAs.
  const float tol = 1e-4f;
#else
  const float tol = 0.f;
#endif
  auto g = test::rng(97);
  for (const Geometry& geo : geometries) {
    for (const int64_t m : {1, 3, 4, 8, 16}) {
      const Tensor x = Tensor::randn({geo.n, geo.cin, geo.h, geo.w}, g);
      const Tensor w =
          Tensor::randn({m, geo.cin, geo.k, geo.k}, g, 0.f, 0.5f);
      const Tensor bias = Tensor::randn({m}, g);
      const Tensor ref = k_ordered_conv2d(x, w, bias, geo.stride, geo.pad);
      const ag::Variable xv(x), wv(w), bv(bias);
      const auto wp = std::make_shared<const PackedWeight>(
          GemmLayout::kNN, w.data(), m, geo.cin * geo.k * geo.k,
          Precision::kFp32);
      for (const int threads : {1, 3}) {
        runtime::ThreadPool pool(threads);
        runtime::ScopedPool scope(&pool);
        std::ostringstream what;
        what << "cin=" << geo.cin << " h=" << geo.h << " w=" << geo.w
             << " k=" << geo.k << " stride=" << geo.stride
             << " pad=" << geo.pad << " m=" << m << " threads=" << threads;
        EXPECT_LE(test::max_abs_diff(
                      ag::conv2d(xv, wv, bv, geo.stride, geo.pad).value(),
                      ref),
                  tol)
            << "per-call " << what.str();
        for (const int64_t nc : {0, 128, 512}) {
          EXPECT_LE(test::max_abs_diff(
                        replay_prepacked_conv(xv, wv, wp, bv, geo.stride,
                                              geo.pad, nc),
                        ref),
                    tol)
              << "prepacked nc=" << nc << " " << what.str();
        }
      }
    }
  }
}

TEST(ConvGemm, ForwardBackwardBitwiseDeterministicAcrossThreadCounts) {
  auto g = test::rng(41);
  Tensor x = Tensor::randn({3, 6, 20, 20}, g);
  Tensor w = Tensor::randn({8, 6, 3, 3}, g, 0.f, 0.3f);
  Tensor bias = Tensor::randn({8}, g);

  auto run = [&](int threads, Tensor* gx, Tensor* gw, Tensor* gb) {
    runtime::ThreadPool pool(threads);
    runtime::ScopedPool sp(&pool);
    ag::Variable xv(x.clone(), /*requires_grad=*/true);
    ag::Variable wv(w.clone(), /*requires_grad=*/true);
    ag::Variable bv(bias.clone(), /*requires_grad=*/true);
    ag::Variable out = ag::conv2d(xv, wv, bv, 1, 1);
    ag::Variable loss = ag::sum(out);
    loss.backward();
    *gx = xv.grad().clone();
    *gw = wv.grad().clone();
    *gb = bv.grad().clone();
    return out.value().clone();
  };

  Tensor gx1, gw1, gb1, gx8, gw8, gb8;
  const Tensor o1 = run(1, &gx1, &gw1, &gb1);
  const Tensor o8 = run(8, &gx8, &gw8, &gb8);
  EXPECT_EQ(test::max_abs_diff(o1, o8), 0.f);
  EXPECT_EQ(test::max_abs_diff(gx1, gx8), 0.f);
  EXPECT_EQ(test::max_abs_diff(gw1, gw8), 0.f);
  EXPECT_EQ(test::max_abs_diff(gb1, gb8), 0.f);
}

TEST(ConvGemm, ConvTransposeDeterministicAcrossThreadCounts) {
  auto g = test::rng(43);
  Tensor x = Tensor::randn({2, 5, 9, 9}, g);
  Tensor w = Tensor::randn({5, 4, 4, 4}, g, 0.f, 0.3f);
  Tensor bias = Tensor::randn({4}, g);

  auto run = [&](int threads, Tensor* gx, Tensor* gw) {
    runtime::ThreadPool pool(threads);
    runtime::ScopedPool sp(&pool);
    ag::Variable xv(x.clone(), true), wv(w.clone(), true), bv(bias.clone());
    ag::Variable out = ag::conv_transpose2d(xv, wv, bv, 2, 1);
    ag::sum(out).backward();
    *gx = xv.grad().clone();
    *gw = wv.grad().clone();
    return out.value().clone();
  };
  Tensor gx1, gw1, gx8, gw8;
  const Tensor o1 = run(1, &gx1, &gw1);
  const Tensor o8 = run(8, &gx8, &gw8);
  EXPECT_EQ(test::max_abs_diff(o1, o8), 0.f);
  EXPECT_EQ(test::max_abs_diff(gx1, gx8), 0.f);
  EXPECT_EQ(test::max_abs_diff(gw1, gw8), 0.f);
}

// -- Spectral mixing kernel ---------------------------------------------------

TEST(CmodeMix, MatchesNaivePerModeContraction) {
  auto g = test::rng(53);
  const int64_t b = 2, ci = 5, co = 3, xy = 77;  // odd sizes off the i-block
  Tensor vr = Tensor::randn({b * ci * xy}, g), vi = Tensor::randn({b * ci * xy}, g);
  Tensor wr = Tensor::randn({ci * co * xy}, g), wi = Tensor::randn({ci * co * xy}, g);
  Tensor zr({b * co * xy}), zi({b * co * xy});
  cmode_mix(b, ci, co, xy, vr.data(), vi.data(), wr.data(), wi.data(),
            zr.data(), zi.data());
  for (int64_t bb = 0; bb < b; ++bb) {
    for (int64_t o = 0; o < co; ++o) {
      for (int64_t p = 0; p < xy; ++p) {
        double ar = 0.0, ai = 0.0;
        for (int64_t i = 0; i < ci; ++i) {
          const double xr = vr[(bb * ci + i) * xy + p];
          const double xi = vi[(bb * ci + i) * xy + p];
          const double yr = wr[(i * co + o) * xy + p];
          const double yi = wi[(i * co + o) * xy + p];
          ar += xr * yr - xi * yi;
          ai += xr * yi + xi * yr;
        }
        EXPECT_NEAR(zr[(bb * co + o) * xy + p], ar, 1e-4);
        EXPECT_NEAR(zi[(bb * co + o) * xy + p], ai, 1e-4);
      }
    }
  }
}

TEST(CmodeMix, BitwiseDeterministicAcrossThreadCounts) {
  auto g = test::rng(59);
  const int64_t b = 3, ci = 9, co = 4, xy = 128;
  Tensor vr = Tensor::randn({b * ci * xy}, g), vi = Tensor::randn({b * ci * xy}, g);
  Tensor wr = Tensor::randn({ci * co * xy}, g), wi = Tensor::randn({ci * co * xy}, g);
  Tensor zr1({b * co * xy}), zi1({b * co * xy});
  Tensor zr8({b * co * xy}), zi8({b * co * xy});
  {
    runtime::ThreadPool serial(1);
    runtime::ScopedPool sp(&serial);
    cmode_mix(b, ci, co, xy, vr.data(), vi.data(), wr.data(), wi.data(),
              zr1.data(), zi1.data());
  }
  {
    runtime::ThreadPool wide(8);
    runtime::ScopedPool sp(&wide);
    cmode_mix(b, ci, co, xy, vr.data(), vi.data(), wr.data(), wi.data(),
              zr8.data(), zi8.data());
  }
  EXPECT_EQ(test::max_abs_diff(zr1, zr8), 0.f);
  EXPECT_EQ(test::max_abs_diff(zi1, zi8), 0.f);
}

// -- Float workspace pool -----------------------------------------------------

TEST(FloatWorkspacePool, ReusesReleasedBuffers) {
  runtime::FloatWorkspacePool& pool = runtime::FloatWorkspacePool::instance();
  pool.clear();
  { runtime::FloatWorkspace ws(1000); }
  const auto before = pool.stats();
  { runtime::FloatWorkspace ws(900); }  // same power-of-two class
  const auto after = pool.stats();
  EXPECT_EQ(after.acquires, before.acquires + 1);
  EXPECT_EQ(after.reuses, before.reuses + 1);
  pool.clear();
}

TEST(FloatWorkspacePool, IndependentFromComplexPool) {
  runtime::FloatWorkspacePool::instance().clear();
  runtime::WorkspacePool::instance().clear();
  const auto c0 = runtime::WorkspacePool::instance().stats();
  { runtime::FloatWorkspace ws(64); }
  const auto c1 = runtime::WorkspacePool::instance().stats();
  EXPECT_EQ(c0.acquires, c1.acquires);  // float leases don't touch it
}

}  // namespace
}  // namespace litho
