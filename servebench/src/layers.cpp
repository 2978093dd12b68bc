#include "layers.h"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <tuple>

#include "autograd/grad_mode.h"
#include "core/large_tile.h"
#include "net/protocol.h"
#include "net/server.h"
#include "runtime/engine.h"
#include "runtime/graph_exec.h"
#include "runtime/scheduler.h"
#include "tensor/gemm.h"
#include "tensor/prepack.h"

namespace servebench {

namespace {

using litho::Tensor;
namespace ag = litho::ag;
namespace rt = litho::runtime;

// Median wall time of @p f over at least @p min_reps calls and at least
// @p min_total_ms of calls.
template <typename F>
double median_ms(F&& f, int min_reps, double min_total_ms) {
  std::vector<double> t;
  double total = 0.0;
  while (static_cast<int>(t.size()) < min_reps ||
         (total < min_total_ms && t.size() < 100000)) {
    const Clock::time_point a = Clock::now();
    f();
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - a).count();
    t.push_back(ms);
    total += ms;
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

double elapsed_ms(Clock::time_point a) {
  return std::chrono::duration<double, std::milli>(Clock::now() - a).count();
}

Tensor binarized(const float* v, int64_t h, int64_t w) {
  Tensor t({h, w});
  std::copy(v, v + h * w, t.data());
  t.apply_([](float x) { return x >= 0.f ? 1.f : 0.f; });
  return t;
}

struct PassResult {
  std::vector<Record> records;
  rt::SchedulerStats sched;
  litho::net::ServerStats server;
};

// Traffic straight into a fresh Scheduler (doinn_serve's defaults).
template <typename F>
PassResult scheduler_pass(rt::InferenceEngine& engine, int connections,
                          F&& traffic) {
  rt::Scheduler sched(engine);
  SchedulerTransport t(sched, connections);
  PassResult r;
  r.records = traffic(t);
  sched.shutdown();
  r.sched = sched.stats();
  return r;
}

// The same through a fresh in-process net::Server on loopback.
template <typename F>
PassResult server_pass(rt::InferenceEngine& engine, int connections,
                       F&& traffic) {
  rt::Scheduler sched(engine);
  litho::net::Server server(sched, litho::net::ServerOptions{});
  std::thread loop([&server] { server.run(); });
  PassResult r;
  try {
    TcpTransport t(server.port(), connections);
    r.records = traffic(t);
  } catch (...) {
    server.stop();
    loop.join();
    throw;
  }
  server.stop();
  loop.join();
  sched.shutdown();
  r.sched = sched.stats();
  r.server = server.stats();
  return r;
}

std::string pass_json(const PassResult& r) {
  std::ostringstream o;
  o << "{\"records\":" << records_json(r.records)
    << ",\"sched\":{\"batches\":" << r.sched.batches
    << ",\"batched_requests\":" << r.sched.batched_requests
    << ",\"large\":" << r.sched.large
    << ",\"rejected\":" << r.sched.rejected
    << ",\"max_queue_depth\":" << r.sched.max_queue_depth
    << ",\"latency_ms_p50\":" << r.sched.latency_ms_p50 << "},\"server\":{\"requests_ok\":" << r.server.requests_ok
    << ",\"busy_rejected\":" << r.server.busy_rejected
    << ",\"dropped_replies\":" << r.server.dropped_replies << "}}";
  return o.str();
}

}  // namespace

std::string run_layers(const Inputs& in, const std::string& checkpoint,
                       Workload w, double seconds, uint64_t seed,
                       const std::vector<GemmShape>& gemm_shapes) {
  rt::EngineOptions eopts;
  eopts.num_threads = 2;
  rt::InferenceEngine engine(checkpoint, eopts);
  const int64_t tile = engine.config().tile;
  std::map<std::string, double> probe;
  std::vector<std::string> mismatches;
  const auto check = [&mismatches](const char* what, const Tensor& contour,
                                   const Item& item) {
    std::vector<uint8_t> payload;
    litho::net::encode_image(contour, payload);
    if (payload != item.ref_payload) mismatches.push_back(what);
  };
  const auto first_tiles = [&in](int n) {
    std::vector<Tensor> v;
    for (int i = 0; i < n; ++i) v.push_back(in.tiles[static_cast<size_t>(i)].mask);
    return v;
  };

  // runtime.engine: plan builds, as the first call of each shape minus a
  // warm call.
  std::vector<std::vector<Tensor>> batches;
  double plan_build_ms = 0.0;
  for (int n = 1; n <= 8; ++n) {
    const std::vector<Tensor>& masks = batches.emplace_back(first_tiles(n));
    const Clock::time_point a = Clock::now();
    const std::vector<Tensor> out = engine.predict_batch(masks);
    const double cold = elapsed_ms(a);
    for (size_t i = 0; i < out.size(); ++i) {
      check("engine.predict_batch", out[i], in.tiles[i]);
    }
    plan_build_ms +=
        cold - median_ms([&] { engine.predict_batch(masks); }, 3, 0);
  }
  const Item& big = in.large.front();
  {
    const Clock::time_point a = Clock::now();
    check("engine.predict_large", engine.predict_large(big.mask), big);
    const double cold = elapsed_ms(a);
    plan_build_ms +=
        cold - median_ms([&] { engine.predict_large(big.mask); }, 3, 0);
  }
  probe["engine.plan_build_ms"] = plan_build_ms;
  probe["engine.plan_count"] = static_cast<double>(engine.plan_count());
  probe["engine.plan_fallbacks"] = static_cast<double>(engine.plan_fallbacks());

  // runtime.graph_exec: executors of our own over capture_graph (batch 1
  // and 4), next to the op walk they replace. tensor: FLOPs of the conv
  // GEMMs the batch-4 graph runs.
  const std::shared_ptr<litho::core::Doinn> model = engine.shared_model();
  const auto forward = [&model](const ag::Variable& v) {
    return model->forward(v);
  };
  struct OwnPlan {
    Tensor x;
    std::unique_ptr<rt::GraphExecutor> exec;
    std::unique_ptr<rt::ExecContext> ctx;
  };
  std::map<int, OwnPlan> own;
  std::map<std::tuple<int64_t, int64_t, int64_t>, double> shape_flops;
  for (int n : {1, 4}) {
    OwnPlan& p = own[n];
    p.x = Tensor({n, 1, tile, tile});
    for (int i = 0; i < n; ++i) {
      const Tensor& m = in.tiles[static_cast<size_t>(i)].mask;
      std::copy(m.data(), m.data() + m.numel(), p.x.data() + i * tile * tile);
    }
    rt::ScopedPool scope(&engine.pool());
    const std::shared_ptr<ag::CapturedGraph> graph =
        rt::capture_graph(p.x, forward);
    rt::ExecutorOptions xopts;
    xopts.autotune = true;
    p.exec = std::make_unique<rt::GraphExecutor>(graph, xopts);
    p.ctx = p.exec->acquire();
    if (n != 4) continue;
    probe["exec.arena_mb.b4"] =
        static_cast<double>(p.exec->arena_bytes()) / (1024.0 * 1024.0);
    double flops = 0.0;
    for (const ag::CaptureNode& node : graph->nodes) {
      if (!node.conv.valid) continue;
      const double f = 2.0 * static_cast<double>(node.conv.m) *
                       static_cast<double>(node.conv.k) *
                       static_cast<double>(node.conv.l) *
                       static_cast<double>(node.conv.batch);
      shape_flops[{node.conv.m, node.conv.k, node.conv.l}] += f;
      flops += f;
    }
    probe["tensor.flops_per_tile"] = flops / n;
  }
  // The input slot is arena memory a replay may reuse, so every replay
  // starts from a fresh copy, as in InferenceEngine::predict_batch.
  const auto replay = [&](OwnPlan& p) {
    rt::ScopedPool scope(&engine.pool());
    std::copy(p.x.data(), p.x.data() + p.x.numel(), p.ctx->input(0));
    p.exec->run(*p.ctx);
  };

  // core.large_tile: the full-resolution LP + IR pass over stitched GP
  // features; the rest of predict_large is the GP clip fan-out.
  const litho::core::LargeTilePredictor large(*model);
  const int64_t side = big.mask.size(0);
  ag::Variable gp;
  {
    rt::ScopedPool scope(&engine.pool());
    ag::NoGradGuard no_grad;
    gp = large.stitched_gp(big.mask, &engine.pool());
  }
  const ag::Variable big_x(big.mask.reshape({1, 1, side, side}), false);
  Tensor lp_ir_out;

  // Warm timings, round-robin: host-speed drift during the probes then hits
  // every series alike. The differences engine.self_ms.b4 and large.gp_ms
  // are medians of per-round differences, so drift between rounds cancels.
  std::map<std::string, std::vector<double>> series;
  const auto timed = [&series](const std::string& name, auto&& f) {
    const Clock::time_point a = Clock::now();
    f();
    series[name].push_back(elapsed_ms(a));
  };
  for (int round = 0; round < 11; ++round) {
    for (int n = 1; n <= 8; ++n) {
      timed("engine.batch_ms.b" + std::to_string(n), [&] {
        engine.predict_batch(batches[static_cast<size_t>(n - 1)]);
      });
    }
    for (auto& [n, p] : own) {
      timed("exec.replay_ms.b" + std::to_string(n), [&] { replay(p); });
    }
    timed("exec.opwalk_ms.b4", [&] {
      rt::ScopedPool scope(&engine.pool());
      ag::NoGradGuard no_grad;
      forward(ag::Variable(own[4].x, false));
    });
    timed("engine.large_ms", [&] { engine.predict_large(big.mask); });
    timed("large.lp_ir_ms", [&] {
      rt::ScopedPool scope(&engine.pool());
      ag::NoGradGuard no_grad;
      lp_ir_out = model->forward_from_gp(gp, big_x).value();
    });
  }
  const auto median_diff = [&series](const std::string& a,
                                     const std::string& b) {
    std::vector<double> d;
    for (size_t r = 0; r < series[a].size(); ++r) {
      d.push_back(series[a][r] - series[b][r]);
    }
    std::sort(d.begin(), d.end());
    return d[d.size() / 2];
  };
  probe["engine.self_ms.b4"] =
      median_diff("engine.batch_ms.b4", "exec.replay_ms.b4");
  probe["large.gp_ms"] = median_diff("engine.large_ms", "large.lp_ir_ms");
  for (auto& [name, v] : series) {
    std::sort(v.begin(), v.end());
    probe[name] = v[v.size() / 2];
  }
  for (auto& [n, p] : own) {
    for (int i = 0; i < n; ++i) {
      check("exec.replay",
            binarized(p.ctx->output(0) + i * tile * tile, tile, tile),
            in.tiles[static_cast<size_t>(i)]);
    }
    p.exec->release(std::move(p.ctx));
  }
  check("large.forward_from_gp", binarized(lp_ir_out.data(), side, side), big);

  // tensor: the packed GEMM at fixed conv shapes, A prepacked at load the
  // way conv weights are, B a dense k x l operand streamed in place.
  for (const GemmShape& s : gemm_shapes) {
    std::mt19937 rng(static_cast<uint32_t>(s.m * 131 + s.k * 7 + s.l));
    const Tensor a = Tensor::rand({s.m, s.k}, rng, -1.f, 1.f);
    const Tensor b = Tensor::rand({s.k, s.l}, rng, -1.f, 1.f);
    Tensor c({s.m, s.l});
    const litho::PackedWeight packed(litho::GemmLayout::kNN, a.data(), s.m,
                                     s.k, litho::Precision::kFp32);
    const litho::StridedBPacker feed(b.data(), s.l, false);
    const int64_t blocks = litho::gemm_col_blocks(s.l);
    rt::ScopedPool scope(&engine.pool());
    const double ms = median_ms(
        [&] {
          rt::parallel_for(blocks, [&](int64_t b0, int64_t b1) {
            for (int64_t blk = b0; blk < b1; ++blk) {
              litho::gemm_col_block(packed.fp32_view(), feed, s.l, blk,
                                    c.data());
            }
          });
        },
        10, 200);
    probe["gemm.gflops." + std::to_string(s.m) + "_" + std::to_string(s.k) +
          "_" + std::to_string(s.l)] =
        2.0 * static_cast<double>(s.m * s.k * s.l) / (ms * 1e6);
  }

  // net: frame codec cost per request (predict frame encode + decode,
  // contour frame encode + decode).
  for (const auto& [name, item] :
       {std::pair<const char*, const Item*>{"tile", &in.tiles.front()},
        {"large", &big}}) {
    Tensor contour;
    litho::net::decode_image(item->ref_payload.data(),
                             item->ref_payload.size(), contour);
    probe[std::string("net.codec_us.") + name] =
        1000.0 * median_ms(
                     [&] {
                       using namespace litho::net;
                       const std::vector<uint8_t> f =
                           make_predict_frame(7, item->mask);
                       FrameHeader h;
                       std::string model_name;
                       Tensor mask;
                       decode_header(f.data(), h);
                       decode_predict_payload(h.version,
                                              f.data() + kHeaderBytes,
                                              h.payload_bytes, model_name,
                                              mask);
                       const std::vector<uint8_t> c =
                           make_contour_frame(7, contour);
                       decode_header(c.data(), h);
                       decode_image(c.data() + kHeaderBytes, h.payload_bytes,
                                    mask);
                     },
                     50, 100);
  }

  // Traffic passes on the warm engine, capped so the run stays short.
  const double span = std::min(seconds, 20.0);
  const double half = span / 2.0;
  const double quarter = span / 4.0;
  const PassResult sched_tile =
      scheduler_pass(engine, 4, [&](Transport& t) {
        return run_closed(t, in, 4, quarter, seed, 1);
      });
  const PassResult net_tile = server_pass(engine, 4, [&](Transport& t) {
    return run_closed(t, in, 4, quarter, seed, 1);
  });
  const PassResult sched_mixed =
      scheduler_pass(engine, 2, [&](Transport& t) {
        return run_open(t, in,
                        make_open_schedule(seed, span, kMixedTileRate,
                                           kMixedLargeRate),
                        1);
      });
  const PassResult net_workload =
      server_pass(engine, workload_connections(w), [&](Transport& t) {
        return run_workload(w, t, in, half, seed, 1);
      });

  std::ostringstream o;
  o.precision(9);
  o << "{\"mismatches\":[";
  for (size_t i = 0; i < mismatches.size(); ++i) {
    o << (i == 0 ? "\"" : ",\"") << mismatches[i] << "\"";
  }
  o << "],\"probes\":{";
  bool first = true;
  for (const auto& [name, value] : probe) {
    o << (first ? "" : ",") << "\"" << name << "\":" << value;
    first = false;
  }
  o << "},\"conv_shapes\":[";
  std::vector<std::pair<double, std::tuple<int64_t, int64_t, int64_t>>> ranked;
  for (const auto& [shape, f] : shape_flops) ranked.emplace_back(f, shape);
  std::sort(ranked.rbegin(), ranked.rend());
  for (size_t i = 0; i < ranked.size(); ++i) {
    const auto& [m, k, l] = ranked[i].second;
    o << (i == 0 ? "" : ",") << "[" << m << "," << k << "," << l << ","
      << ranked[i].first << "]";
  }
  o << "],\"passes\":{\"sched_tile\":" << pass_json(sched_tile)
    << ",\"net_tile\":" << pass_json(net_tile)
    << ",\"sched_mixed\":" << pass_json(sched_mixed)
    << ",\"net_workload\":" << pass_json(net_workload) << "}}";
  return o.str();
}

}  // namespace servebench
