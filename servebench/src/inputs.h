// Benchmark inputs: a seeded checkpoint, seeded tile and large-mask pools,
// and the op-walk reference reply for every mask.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace servebench {

/// Mask raster pitch of the repository's datasets (litho OpticsConfig).
constexpr double kPixelNm = 16.0;
/// Tile side of DoinnConfig::small(), the served model.
constexpr int64_t kTilePx = 128;
/// Large-mask side: 4x the tile side, Table 4's ~67 um^2 tiles.
constexpr int64_t kLargePx = 512;
constexpr int kTilePool = 32;
constexpr int kLargePool = 4;

struct Item {
  /// kPredict image payload (protocol encode_image of the mask).
  std::vector<uint8_t> mask_payload;
  /// kContour image payload the server must reply with, byte for byte.
  std::vector<uint8_t> ref_payload;
  /// The mask exactly as the server decodes it from mask_payload.
  litho::Tensor mask;
};

struct Inputs {
  std::vector<Item> tiles;
  std::vector<Item> large;
};

/// Checkpoint path inside an inputs directory.
std::string checkpoint_path(const std::string& dir);

/// Writes the checkpoint (save_doinn of a DoinnConfig::small() model seeded
/// from @p seed) and inputs.bin into @p dir. References are computed on the
/// op walk from the reloaded checkpoint: core::predict_contour for tiles,
/// LargeTilePredictor::predict for large masks, binarized at 0 and encoded
/// with net::encode_image.
void prepare_inputs(uint64_t seed, const std::string& dir);

/// Reads inputs.bin back; throws std::runtime_error on a malformed file.
Inputs load_inputs(const std::string& dir);

}  // namespace servebench
