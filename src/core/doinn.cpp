#include "core/doinn.h"

#include <stdexcept>
#include <string>

#include "io/io.h"

namespace litho::core {

DoinnConfig DoinnConfig::small() { return DoinnConfig{}; }

DoinnConfig DoinnConfig::paper() {
  DoinnConfig cfg;
  cfg.tile = 2048;
  cfg.pool = 8;
  cfg.modes = 50;
  cfg.gp_channels = 16;
  cfg.lp1 = 4;
  cfg.lp2 = 8;
  cfg.refine1 = 32;
  cfg.refine2 = 16;
  return cfg;
}

void DoinnConfig::validate() const {
  if (tile % (pool * 4) != 0) {
    throw std::invalid_argument("tile must be divisible by 4*pool");
  }
  if (pool != 8) {
    // The LP path downsamples by exactly 2^3; the GP/LP concat requires the
    // same spatial grid.
    throw std::invalid_argument("pool factor must be 8 (three LP levels)");
  }
  if (modes > gp_grid() || modes > gp_spec_w()) {
    throw std::invalid_argument("modes exceed the pooled half-spectrum");
  }
  if (modes <= 0 || gp_channels <= 0) {
    throw std::invalid_argument("modes and channels must be positive");
  }
}

void DoinnConfig::check_input_extent(int64_t h, int64_t w) const {
  const std::string extent = std::to_string(h) + "x" + std::to_string(w);
  if (h <= 0 || w <= 0 || h % (pool * 4) != 0 || w % (pool * 4) != 0) {
    throw std::invalid_argument("DOINN input extent " + extent +
                                " must be divisible by " +
                                std::to_string(pool * 4));
  }
  if (modes > h / pool || modes > (w / pool) / 2 + 1) {
    throw std::invalid_argument("DOINN input extent " + extent +
                                " is too small for " + std::to_string(modes) +
                                " retained modes");
  }
}

namespace {

/// FNO-style complex weight init: uniform with scale 1/(cin*cout).
Tensor fno_init(Shape shape, int64_t cin, int64_t cout, std::mt19937& rng) {
  const float scale = 1.f / static_cast<float>(cin * cout);
  return Tensor::rand(std::move(shape), rng, -scale, scale);
}

}  // namespace

Doinn::Doinn(DoinnConfig cfg, std::mt19937& rng)
    : cfg_((cfg.validate(), cfg)),
      bypass_(1, cfg.gp_channels, 1, 1, 0, rng),
      conv1_(1, cfg.lp1, 4, 2, 1, rng),
      conv2_(cfg.lp1, cfg.lp2, 4, 2, 1, rng),
      conv3_(cfg.lp2, cfg.lp3(), 4, 2, 1, rng),
      vgg1_(cfg.lp1, cfg.lp1, rng),
      vgg2_(cfg.lp2, cfg.lp2, rng),
      vgg3_(cfg.lp3(), cfg.lp3(), rng),
      dconv1_(cfg.use_lp ? 2 * cfg.gp_channels : cfg.gp_channels,
              cfg.gp_channels, 4, 2, 1, rng),
      dconv2_(cfg.use_lp ? cfg.gp_channels + cfg.lp2 : cfg.gp_channels,
              cfg.lp2, 4, 2, 1, rng),
      dconv3_(cfg.use_lp ? cfg.lp2 + cfg.lp1 : cfg.lp2, cfg.lp1, 4, 2, 1, rng),
      vgg4_(cfg.gp_channels, cfg.gp_channels, rng),
      vgg5_(cfg.lp2, cfg.lp2, rng),
      vgg6_(cfg.lp1, cfg.lp1, rng),
      convr1_(cfg.lp1, cfg.refine1, 3, 1, 1, rng),
      convr2_(cfg.refine1, cfg.refine2, 3, 1, 1, rng),
      convr3_(cfg.refine2, cfg.refine2, 3, 1, 1, rng),
      convr4_(cfg.refine2, 1, 3, 1, 1, rng),
      head_(cfg.lp1, 1, 3, 1, 1, rng) {
  const int64_t c = cfg_.gp_channels;
  lift_re_ = register_parameter("gp.lift_re", fno_init({1, c}, 1, c, rng));
  lift_im_ = register_parameter("gp.lift_im", fno_init({1, c}, 1, c, rng));
  wr_re_ = register_parameter(
      "gp.wr_re", fno_init({c, c, cfg_.modes, cfg_.modes}, c, c, rng));
  wr_im_ = register_parameter(
      "gp.wr_im", fno_init({c, c, cfg_.modes, cfg_.modes}, c, c, rng));
  if (cfg_.use_bypass) register_module("gp.bypass", &bypass_);
  if (cfg_.use_lp) {
    register_module("lp.conv1", &conv1_);
    register_module("lp.conv2", &conv2_);
    register_module("lp.conv3", &conv3_);
    register_module("lp.vgg1", &vgg1_);
    register_module("lp.vgg2", &vgg2_);
    register_module("lp.vgg3", &vgg3_);
  }
  register_module("ir.dconv1", &dconv1_);
  register_module("ir.dconv2", &dconv2_);
  register_module("ir.dconv3", &dconv3_);
  register_module("ir.vgg4", &vgg4_);
  register_module("ir.vgg5", &vgg5_);
  register_module("ir.vgg6", &vgg6_);
  if (cfg_.use_ir) {
    register_module("ir.convr1", &convr1_);
    register_module("ir.convr2", &convr2_);
    register_module("ir.convr3", &convr3_);
    register_module("ir.convr4", &convr4_);
  } else {
    register_module("ir.head", &head_);
  }
}

ag::Variable Doinn::gp_features(const ag::Variable& x) {
  const int64_t grid_h = x.shape()[2] / cfg_.pool;
  const int64_t grid_w = x.shape()[3] / cfg_.pool;
  ag::Variable pooled = ag::avg_pool2d(x, cfg_.pool);
  ag::CVariable spec = ag::rfft2v(pooled);
  ag::CVariable trunc = ag::ctruncate(spec, cfg_.modes, cfg_.modes);
  ag::CVariable lifted = ag::clift(trunc, {lift_re_, lift_im_});
  ag::CVariable mixed = ag::cmode_matmul(lifted, {wr_re_, wr_im_});
  ag::CVariable padded = ag::cpad(mixed, grid_h, grid_w / 2 + 1);
  ag::Variable out = ag::irfft2v(padded, grid_w);
  if (cfg_.use_bypass) out = ag::add(out, bypass_.forward(pooled));
  return ag::leaky_relu(out, 0.1f);
}

ag::Variable Doinn::lp_features(const ag::Variable& x) {
  ag::Variable l1 = vgg1_.forward(conv1_.forward(x));
  ag::Variable l2 = vgg2_.forward(conv2_.forward(l1));
  return vgg3_.forward(conv3_.forward(l2));
}

ag::Variable Doinn::forward_from_gp(const ag::Variable& gp,
                                    const ag::Variable& x) {
  ag::Variable l1, l2, l3;
  if (cfg_.use_lp) {
    l1 = vgg1_.forward(conv1_.forward(x));
    l2 = vgg2_.forward(conv2_.forward(l1));
    l3 = vgg3_.forward(conv3_.forward(l2));
  }

  ag::Variable h = cfg_.use_lp ? ag::concat_channels({gp, l3}) : gp;
  h = vgg4_.forward(dconv1_.forward(h));
  if (cfg_.use_lp) h = ag::concat_channels({h, l2});
  h = vgg5_.forward(dconv2_.forward(h));
  if (cfg_.use_lp) h = ag::concat_channels({h, l1});
  h = vgg6_.forward(dconv3_.forward(h));

  if (cfg_.use_ir) {
    h = ag::relu(convr1_.forward(h));
    h = ag::relu(convr2_.forward(h));
    h = ag::relu(convr3_.forward(h));
    return ag::tanh(convr4_.forward(h));
  }
  return ag::tanh(head_.forward(h));
}

ag::Variable Doinn::forward(const ag::Variable& x) {
  if (x.shape().size() != 4 || x.shape()[1] != 1) {
    throw std::invalid_argument("DOINN expects [N,1,H,W] input");
  }
  cfg_.check_input_extent(x.shape()[2], x.shape()[3]);
  return forward_from_gp(gp_features(x), x);
}

Tensor encode_config(const DoinnConfig& cfg) {
  return Tensor({10}, {static_cast<float>(cfg.tile),
                       static_cast<float>(cfg.modes),
                       static_cast<float>(cfg.gp_channels),
                       static_cast<float>(cfg.lp1),
                       static_cast<float>(cfg.lp2),
                       static_cast<float>(cfg.refine1),
                       static_cast<float>(cfg.refine2),
                       cfg.use_ir ? 1.f : 0.f, cfg.use_lp ? 1.f : 0.f,
                       cfg.use_bypass ? 1.f : 0.f});
}

DoinnConfig decode_config(const Tensor& t) {
  if (t.numel() != 10) {
    throw std::runtime_error("malformed " + std::string(kDoinnConfigKey) +
                             " entry: expected 10 values, got " +
                             std::to_string(t.numel()));
  }
  DoinnConfig cfg;
  cfg.tile = static_cast<int64_t>(t[0]);
  cfg.modes = static_cast<int64_t>(t[1]);
  cfg.gp_channels = static_cast<int64_t>(t[2]);
  cfg.lp1 = static_cast<int64_t>(t[3]);
  cfg.lp2 = static_cast<int64_t>(t[4]);
  cfg.refine1 = static_cast<int64_t>(t[5]);
  cfg.refine2 = static_cast<int64_t>(t[6]);
  cfg.use_ir = t[7] != 0.f;
  cfg.use_lp = t[8] != 0.f;
  cfg.use_bypass = t[9] != 0.f;
  return cfg;
}

void save_doinn(const std::string& path, const Doinn& model) {
  auto dict = model.state_dict();
  dict.emplace(kDoinnConfigKey, encode_config(model.config()));
  io::save_tensors(path, dict);
}

std::unique_ptr<Doinn> load_doinn(const std::string& path) {
  auto dict = io::load_tensors(path);
  const auto cfg_it = dict.find(kDoinnConfigKey);
  if (cfg_it == dict.end()) {
    throw std::runtime_error(path + " lacks " + std::string(kDoinnConfigKey) +
                             " metadata");
  }
  const DoinnConfig cfg = decode_config(cfg_it->second);
  dict.erase(cfg_it);
  std::mt19937 rng(0);  // init values are overwritten by the checkpoint
  auto model = std::make_unique<Doinn>(cfg, rng);
  model->load_state_dict(dict);
  return model;
}

}  // namespace litho::core
