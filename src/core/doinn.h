// DOINN: dual-band optics-inspired neural network (paper Section 3.1).
//
// Three paths:
//   GP  — global perception: AvgPool /8 -> rFFT2 -> k-truncation -> complex
//         channel lift (W_P) -> per-mode complex matmul (W_R) -> irFFT2 ->
//         LeakyReLU(0.1). This is the optimized single Fourier Unit of
//         eq. (11), with FFT applied *before* channel lifting. An optional
//         bypass (eq. (8)'s V_{t,L}) adds a 1x1-conv path over the pooled
//         input (ablation Table 3, "ByPass").
//   LP  — local perception: three strided 4x4 convs, each followed by a VGG
//         block (Table 6).
//   IR  — image reconstruction: three transposed convs with U-Net-style
//         concats from LP, followed by four single-stride refinement convs
//         (Table 7), Tanh output.
//
// The architecture is resolution-parametric: DoinnConfig::paper() builds the
// exact appendix dimensions (2048^2 tiles, 50x50 modes, 16 channels, ~1.3M
// parameters), DoinnConfig::small() a proportionally scaled configuration
// that trains in seconds on one CPU core.
#pragma once

#include <memory>
#include <string>

#include "autograd/spectral.h"
#include "nn/contour_model.h"
#include "nn/layers.h"

namespace litho::core {

struct DoinnConfig {
  int64_t tile = 128;       ///< input H = W
  int64_t pool = 8;         ///< GP average-pool factor (fixed 8 in the paper)
  int64_t modes = 7;        ///< retained lowest-frequency modes per axis
  int64_t gp_channels = 8;  ///< Fourier Unit channel count (paper: 16)
  int64_t lp1 = 4;          ///< LP level-1 channels (paper: 4)
  int64_t lp2 = 8;          ///< LP level-2 channels (paper: 8)
  int64_t refine1 = 16;     ///< refinement conv width (paper: 32)
  int64_t refine2 = 8;      ///< refinement conv width (paper: 16)

  // Ablation switches (Table 3). The GP path plus the transposed-conv
  // upsampling chain is always present (a contour cannot be produced
  // without it).
  bool use_ir = true;      ///< refinement convs convr1-4 (group 2)
  bool use_lp = true;      ///< LP path and concat links (group 3)
  bool use_bypass = true;  ///< pooled-input bypass into GP (group 4)

  /// Default scaled configuration used by the experiments.
  static DoinnConfig small();
  /// The exact paper-appendix configuration (2048x2048 @ 1 nm^2/px scale).
  static DoinnConfig paper();

  /// GP grid side after pooling.
  int64_t gp_grid() const { return tile / pool; }
  /// Width of the pooled half spectrum.
  int64_t gp_spec_w() const { return gp_grid() / 2 + 1; }
  /// Third LP level channels; tied to gp_channels for the symmetric concat.
  int64_t lp3() const { return gp_channels; }

  void validate() const;

  /// Throws std::invalid_argument unless an h x w input can run the
  /// forward: both extents divisible by 4*pool (three stride-2 LP levels
  /// must land on the pooled GP grid) and a pooled half spectrum that holds
  /// the retained modes. Exactly the shapes the forward would otherwise
  /// reject deep inside the GP path.
  void check_input_extent(int64_t h, int64_t w) const;
};

/// The DOINN contour model.
class Doinn : public nn::ContourModel {
 public:
  Doinn(DoinnConfig cfg, std::mt19937& rng);

  ag::Variable forward(const ag::Variable& x) override;
  std::string name() const override { return "DOINN"; }

  const DoinnConfig& config() const { return cfg_; }

  /// GP path only: [N,1,H,W] -> activated feature maps [N,C,H/8,W/8].
  /// Exposed for the large-tile scheme (Section 3.2) and the Figure 7
  /// feature-map visualization.
  ag::Variable gp_features(const ag::Variable& x);

  /// LP path features at the third level, for Figure 7 visualization.
  ag::Variable lp_features(const ag::Variable& x);

  /// Completes the forward pass given externally stitched GP features (the
  /// large-tile scheme feeds half-overlap-stitched cores here). @p x is the
  /// full-resolution mask the LP path runs on; spatial sizes must satisfy
  /// gp.shape = x.shape / pool.
  ag::Variable forward_from_gp(const ag::Variable& gp, const ag::Variable& x);

 private:
  DoinnConfig cfg_;

  // GP: complex lift (W_P) and per-mode mixing (W_R) weights.
  ag::Variable lift_re_, lift_im_;
  ag::Variable wr_re_, wr_im_;
  nn::Conv2d bypass_;

  // LP.
  nn::Conv2d conv1_, conv2_, conv3_;
  nn::VggBlock vgg1_, vgg2_, vgg3_;

  // IR.
  nn::ConvTranspose2d dconv1_, dconv2_, dconv3_;
  nn::VggBlock vgg4_, vgg5_, vgg6_;
  nn::Conv2d convr1_, convr2_, convr3_, convr4_;
  nn::Conv2d head_;  ///< small output head used when use_ir == false
};

// -- Checkpoints ---------------------------------------------------------------
// The DoinnConfig rides along in the weights container under
// kDoinnConfigKey, so a checkpoint is self-contained: loading needs no
// extra flags. Used by doinn_cli, the serving runtime, and tests.

inline constexpr char kDoinnConfigKey[] = "__doinn_config__";

/// Serializes @p cfg as a small tensor (the kDoinnConfigKey entry).
Tensor encode_config(const DoinnConfig& cfg);

/// Inverse of encode_config.
DoinnConfig decode_config(const Tensor& t);

/// Writes weights + embedded config to @p path (io::save_tensors format).
void save_doinn(const std::string& path, const Doinn& model);

/// Rebuilds a Doinn from a checkpoint written by save_doinn.
/// Throws std::runtime_error when the config entry is missing.
std::unique_ptr<Doinn> load_doinn(const std::string& path);

}  // namespace litho::core
