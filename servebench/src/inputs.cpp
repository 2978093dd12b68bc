#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <fstream>
#include <random>
#include <stdexcept>

#include "autograd/grad_mode.h"
#include "core/doinn.h"
#include "core/large_tile.h"
#include "core/trainer.h"
#include "layout/layout.h"
#include "net/protocol.h"
#include "runtime/thread_pool.h"

namespace servebench {

namespace {

constexpr uint32_t kFileMagic = 0x4E494253;  // "SBIN"

litho::Tensor generate_mask(int64_t side_px, bool metal, std::mt19937& rng) {
  const int64_t extent_nm = side_px * static_cast<int64_t>(kPixelNm);
  const litho::layout::DesignRules rules;
  litho::layout::Clip clip;
  if (metal) {
    litho::layout::MetalLayerGenerator::Params p;
    p.clip_nm = extent_nm;
    clip = litho::layout::MetalLayerGenerator(p, rules).generate(rng);
  } else {
    litho::layout::ViaLayerGenerator::Params p;
    p.clip_nm = extent_nm;
    clip = litho::layout::ViaLayerGenerator(p, rules).generate(rng);
  }
  return litho::layout::rasterize(clip, kPixelNm);
}

// Quantizes the mask the way the wire does, so the reference sees exactly
// the tensor the server decodes.
Item make_item(const litho::Tensor& raw) {
  Item item;
  litho::net::encode_image(raw, item.mask_payload);
  if (!litho::net::decode_image(item.mask_payload.data(),
                                item.mask_payload.size(), item.mask)) {
    throw std::runtime_error("inputs: mask payload does not decode");
  }
  return item;
}

void set_reference(Item& item, const litho::Tensor& contour) {
  item.ref_payload.clear();
  litho::net::encode_image(contour, item.ref_payload);
}

// An untrained model's output is nearly constant, so every contour would
// binarize to the same all-0 or all-1 image and a byte compare would prove
// little. Shifting the output conv's bias to the median pre-activation over
// a few pool tiles makes the contour depend on the mask. Compute cost is
// unchanged.
void calibrate_output_bias(litho::core::Doinn& model,
                           const std::vector<Item>& tiles) {
  std::vector<float> y;
  for (size_t i = 0; i < 4 && i < tiles.size(); ++i) {
    const litho::Tensor& m = tiles[i].mask;
    litho::ag::NoGradGuard no_grad;
    const litho::Tensor out =
        model.forward(litho::ag::Variable(m.reshape({1, 1, m.size(0), m.size(1)}), false))
            .value();
    y.insert(y.end(), out.data(), out.data() + out.numel());
  }
  std::nth_element(y.begin(), y.begin() + static_cast<ptrdiff_t>(y.size() / 2),
                   y.end());
  std::map<std::string, litho::Tensor> state = model.state_dict();
  litho::Tensor& bias = state.at("ir.convr4.bias");
  bias = bias.clone();
  bias.data()[0] -= std::atanh(std::clamp(y[y.size() / 2], -0.999f, 0.999f));
  model.load_state_dict(state);
}

void put_u32(std::ofstream& out, uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_bytes(std::ofstream& out, const std::vector<uint8_t>& b) {
  put_u32(out, static_cast<uint32_t>(b.size()));
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

uint32_t get_u32(std::ifstream& in) {
  uint32_t v = 0;
  if (!in.read(reinterpret_cast<char*>(&v), sizeof(v))) {
    throw std::runtime_error("inputs: truncated inputs.bin");
  }
  return v;
}

std::vector<uint8_t> get_bytes(std::ifstream& in) {
  const uint32_t n = get_u32(in);
  if (n > litho::net::kMaxPayloadBytes) {
    throw std::runtime_error("inputs: oversize record in inputs.bin");
  }
  std::vector<uint8_t> b(n);
  if (!in.read(reinterpret_cast<char*>(b.data()),
               static_cast<std::streamsize>(n))) {
    throw std::runtime_error("inputs: truncated inputs.bin");
  }
  return b;
}

}  // namespace

std::string checkpoint_path(const std::string& dir) {
  return dir + "/model.bin";
}

void prepare_inputs(uint64_t seed, const std::string& dir) {
  std::mt19937 rng(static_cast<uint32_t>(seed * 2654435761u + 17u));
  Inputs in;
  for (int i = 0; i < kTilePool; ++i) {
    in.tiles.push_back(make_item(generate_mask(kTilePx, i % 2 == 1, rng)));
  }
  for (int i = 0; i < kLargePool; ++i) {
    in.large.push_back(make_item(generate_mask(kLargePx, i % 2 == 0, rng)));
  }
  litho::runtime::ThreadPool pool(0);
  litho::runtime::ScopedPool scope(&pool);
  {
    litho::core::Doinn model(litho::core::DoinnConfig::small(), rng);
    model.set_training(false);
    calibrate_output_bias(model, in.tiles);
    litho::core::save_doinn(checkpoint_path(dir), model);
  }
  // References come from the checkpoint as the server will load it.
  std::unique_ptr<litho::core::Doinn> model =
      litho::core::load_doinn(checkpoint_path(dir));
  model->set_training(false);
  for (Item& item : in.tiles) {
    set_reference(item, litho::core::predict_contour(*model, item.mask));
  }
  litho::core::LargeTilePredictor large(*model);
  for (Item& item : in.large) {
    litho::ag::NoGradGuard no_grad;
    litho::Tensor out = large.predict(item.mask, &pool);
    out.apply_([](float v) { return v >= 0.f ? 1.f : 0.f; });  // as the engine
    set_reference(item, out);
  }

  std::ofstream out(dir + "/inputs.bin", std::ios::binary);
  put_u32(out, kFileMagic);
  put_u32(out, static_cast<uint32_t>(in.tiles.size()));
  put_u32(out, static_cast<uint32_t>(in.large.size()));
  for (const auto* group : {&in.tiles, &in.large}) {
    for (const Item& item : *group) {
      put_bytes(out, item.mask_payload);
      put_bytes(out, item.ref_payload);
    }
  }
  if (!out) throw std::runtime_error("inputs: cannot write inputs.bin");
}

Inputs load_inputs(const std::string& dir) {
  std::ifstream in(dir + "/inputs.bin", std::ios::binary);
  if (!in) throw std::runtime_error("inputs: cannot open inputs.bin");
  if (get_u32(in) != kFileMagic) {
    throw std::runtime_error("inputs: bad inputs.bin magic");
  }
  const uint32_t n_tiles = get_u32(in);
  const uint32_t n_large = get_u32(in);
  if (n_tiles == 0 || n_tiles > 4096 || n_large > 4096) {
    throw std::runtime_error("inputs: bad inputs.bin counts");
  }
  Inputs out;
  for (uint32_t i = 0; i < n_tiles + n_large; ++i) {
    Item item;
    item.mask_payload = get_bytes(in);
    item.ref_payload = get_bytes(in);
    if (!litho::net::decode_image(item.mask_payload.data(),
                                  item.mask_payload.size(), item.mask)) {
      throw std::runtime_error("inputs: malformed mask record");
    }
    (i < n_tiles ? out.tiles : out.large).push_back(std::move(item));
  }
  return out;
}

}  // namespace servebench
