// Internal micro-kernel dispatch table for the packed GEMM engine.
//
// The register micro-kernel is the only part of the engine whose speed
// depends on vector width, so its one templated body
// (gemm_kernels_body.inc) is compiled twice: once at the portable baseline
// (SSE2 on x86-64) and once with AVX2 enabled — but NOT FMA. That matters:
// 8-wide vmulps/vaddps round each lane exactly like their scalar/SSE
// counterparts, so the AVX2 table produces bitwise-identical results and
// only changes throughput; a fused multiply-add would round differently
// and break the engine's "bitwise identical to the seed kernels" contract.
// micro_kernels() picks the widest table the running CPU supports, once.
#pragma once

#include <cstdint>

namespace litho::detail {

struct MicroKernelTable {
  // Full MR x NR tile: C directly read/written with row stride ldc.
  using Fn = void (*)(int64_t klen, const float* ap, const float* bp,
                      int64_t bstride, float* c, int64_t ldc, bool init,
                      const float* bias);
  // Ragged tile: only the mr x nr valid sub-block of C is touched.
  using EdgeFn = void (*)(int64_t klen, const float* ap, const float* bp,
                          int64_t bstride, float* c, int64_t ldc, int64_t mr,
                          int64_t nr, bool init, const float* bias);
  // Paired tile: MR x 2*NR from two adjacent B micro-panels — wide-ISA
  // tables only (the register tile would spill at baseline width). Each
  // half accumulates independently in k order, so results stay bitwise
  // identical to two single-tile calls.
  using PairFn = void (*)(int64_t klen, const float* ap, const float* b0,
                          const float* b1, int64_t bstride, float* c,
                          int64_t ldc, bool init, const float* bias);
  // Fused pack+compute: like PairFn, but B is read from its strided source
  // and each loaded row is also stored to the packed panels pack0/pack1 for
  // the remaining row tiles — the separate packing pass (and its second
  // walk of B) disappears.
  using PairPackFn = void (*)(int64_t klen, const float* ap, const float* b0,
                              const float* b1, int64_t bstride, float* pack0,
                              float* pack1, float* c, int64_t ldc, bool init,
                              const float* bias);
  // Offset-addressed B (the gather-free convolution feed, gemm.h
  // BStripView): row kk of the B micro-panel is the NR floats at
  // b + koff[kk]. Same per-lane arithmetic as Fn; full tile.
  using OffFn = void (*)(int64_t klen, const float* ap, const float* b,
                         const int32_t* koff, float* c, int64_t ldc,
                         bool init, const float* bias);
  // Same with only the first mr rows of C touched (full NR-wide B rows).
  using OffEdgeFn = void (*)(int64_t klen, const float* ap, const float* b,
                             const int32_t* koff, float* c, int64_t ldc,
                             int64_t mr, bool init, const float* bias);
  // Paired offset tile (wide-ISA tables only): B rows at b0 + koff[kk] and
  // b1 + koff[kk].
  using OffPairFn = void (*)(int64_t klen, const float* ap, const float* b0,
                             const float* b1, const int32_t* koff, float* c,
                             int64_t ldc, bool init, const float* bias);
  // m = 1: one C row over 4*NR columns (B rows of 4*NR floats at
  // b + koff[kk]), using only row 0 of the A panel — the zero-padded A rows
  // of an MR-row tile are never multiplied.
  using OffRow4Fn = void (*)(int64_t klen, const float* ap, const float* b,
                             const int32_t* koff, float* c, bool init,
                             const float* bias);
  Fn add = nullptr;        // C (+)= A·B
  Fn sub = nullptr;        // C -= A·B
  EdgeFn add_edge = nullptr;
  EdgeFn sub_edge = nullptr;
  PairFn add_pair = nullptr;
  PairFn sub_pair = nullptr;
  PairPackFn add_pair_pack = nullptr;
  OffFn add_off = nullptr;
  OffEdgeFn add_off_edge = nullptr;
  OffPairFn add_off_pair = nullptr;
  OffRow4Fn add_off_row4 = nullptr;
};

// Reduced-precision micro-kernels for the prepacked inference path
// (tensor/prepack.h). The int8 kernels contract signed weight k-quads
// against unsigned (+128-shifted) activation k-quads in int32 — integer
// arithmetic is exact, so every ISA instantiation produces identical
// accumulators and the fp32 dequantization on write-back is one mul + one
// add per element. The
// bf16 kernels widen both operands to fp32 and accumulate exactly like the
// fp32 kernels (strictly increasing k, no fusion), so the bf16 mode keeps
// the engine's thread-count determinism.
struct QuantKernelTable {
  // One MR x NR int8 tile over one K chunk (kquads packed k-quads):
  // acc[r*ldacc + j] += SUM_k a(r,k) * bu(k,j), exact in int32, where `ap`
  // holds kquads x MR x 4 signed weight bytes (one int32-sized broadcast
  // unit per row and quad) and `bp` kquads x NR x 4 activation bytes
  // quantized UNSIGNED as q+128 — the u8 x s8 layout vpdpbusd consumes
  // directly, contracting four k per instruction. The +128 shift adds
  // exactly 128 * sum_k a(r,k) to every output lane; the caller removes it
  // in the write-back using the weight row sums PackedWeight records
  // (integer arithmetic end to end, so the shift round-trips bit-exactly).
  // Callers chunk K so the active B panels stay L1-resident and park
  // partial sums in int32 between chunks — integer addition is
  // associative-exact, so chunking (or any schedule) gives identical sums.
  // The fp32 dequantization C = float(acc - 128*rowsum) * scale (+ bias)
  // happens once in the caller's write-back pass, which also handles ragged
  // edges (padded A rows contribute zero, and padded B lanes quantize to
  // the bias value 128 that the rowsum correction cancels exactly, so full
  // tiles are always safe to compute). |acc| <= K * 255 * 127 keeps K up to
  // 2^16 inside the int32 budget — far above any conv CKK in the stack.
  using I8Fn = void (*)(int64_t kquads, const int8_t* ap, const uint8_t* bp,
                        int32_t* acc, int64_t ldacc);
  // Two adjacent j-tiles in one pass over A: acc is MR x 16 row-major, with
  // the second tile's B panel at bp + kquads*32 (panels packed back to
  // back). Exactly the arithmetic of two i8 calls — int32 sums are exact,
  // so pairing (which only reuses the A broadcasts) cannot change a bit.
  using I8PairFn = void (*)(int64_t kquads, const int8_t* ap,
                            const uint8_t* bp, int32_t* acc);
  // Quantizes one packed float panel (klen x kGemmNR, k-major) into
  // ceil(klen/4) k-quads of unsigned bytes in the I8Fn B layout:
  // dst[(k/4)*32 + j*4 + k%4] = rne(v * inv_scale) + 128 (the shift keeps
  // the value in [1, 255]; inv_scale = 127/max|B| bounds the rounded
  // magnitude by 127, so nothing clips). Trailing k up to the quad boundary
  // pads with the zero-point 128. Both instantiations round identically
  // (cvtps2dq / lrintf under the default RNE mode), so the packed values do
  // not depend on the dispatched table.
  using I8QuantFn = void (*)(const float* src, int64_t klen, float inv_scale,
                             uint8_t* dst);
  // Full MR x NR bf16 tile, fp32 accumulation, same init/park-in-C protocol
  // as the fp32 kernels. `ap` is a bf16 PackedA-layout panel, `bp` a packed
  // klen x NR bf16 panel.
  using Bf16Fn = void (*)(int64_t klen, const uint16_t* ap,
                          const uint16_t* bp, float* c, int64_t ldc,
                          bool init, const float* bias);
  using Bf16EdgeFn = void (*)(int64_t klen, const uint16_t* ap,
                              const uint16_t* bp, float* c, int64_t ldc,
                              int64_t mr, int64_t nr, bool init,
                              const float* bias);
  I8Fn i8 = nullptr;
  I8PairFn i8x2 = nullptr;
  I8QuantFn i8_quant = nullptr;
  Bf16Fn bf16 = nullptr;
  Bf16EdgeFn bf16_edge = nullptr;
};

/// Baseline-ISA instantiation (always available).
const MicroKernelTable& baseline_kernels();

/// AVX2 (no FMA) instantiation; falls back to the baseline body when the
/// toolchain/target can't build AVX2. Only called after a cpuid check.
const MicroKernelTable& avx2_kernels();

/// The table for this machine, resolved once per process.
const MicroKernelTable& micro_kernels();

/// Reduced-precision tables, same dispatch scheme as the fp32 ones, plus an
/// AVX-VNNI tier: vpdpbusd contracts a whole u8 x s8 k-quad per uop where
/// the plain AVX2 table needs a widen + two vpmaddwd partial sums; all
/// tiers compute identical exact int32 sums, so the dispatch choice changes
/// throughput only, never bits.
const QuantKernelTable& baseline_quant_kernels();
const QuantKernelTable& avx2_quant_kernels();
const QuantKernelTable& avxvnni_quant_kernels();
const QuantKernelTable& quant_kernels();

}  // namespace litho::detail
