#include "traffic.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <functional>
#include <random>
#include <stdexcept>
#include <thread>

#include "net/protocol.h"

namespace servebench {

namespace {

// How long replies may trail the end of the timed window before the
// missing ones count as lost.
constexpr auto kDrain = std::chrono::seconds(30);

int connect_loopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to 127.0.0.1:" +
                             std::to_string(port));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void send_all(int fd, const uint8_t* p, size_t n) {
  while (n > 0) {
    const ssize_t k = ::send(fd, p, n, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("send() failed");
    }
    p += k;
    n -= static_cast<size_t>(k);
  }
}

double ms_since(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(t - t0).count();
}

Outcome check(const Reply& r, const Item& item) {
  switch (r.kind) {
    case Reply::Kind::kContour:
      return r.payload == item.ref_payload ? Outcome::kOk : Outcome::kMismatch;
    case Reply::Kind::kBusy:
      return Outcome::kBusy;
    case Reply::Kind::kError:
      return Outcome::kError;
    case Reply::Kind::kLost:
      break;
  }
  return Outcome::kLost;
}

const Item& pick(const Inputs& in, uint8_t cls, int idx) {
  return cls == kLarge ? in.large[static_cast<size_t>(idx)]
                       : in.tiles[static_cast<size_t>(idx)];
}

// Runs roles[1..] on their own threads and roles[0] on the caller, so the
// generator never uses more threads than roles.
void run_roles(std::vector<std::function<void()>>& roles) {
  std::vector<std::thread> threads;
  for (size_t i = 1; i < roles.size(); ++i) threads.emplace_back(roles[i]);
  roles[0]();
  for (std::thread& t : threads) t.join();
}

}  // namespace

Workload parse_workload(const std::string& name) {
  if (name == "tile_closed") return Workload::kTileClosed;
  if (name == "mixed_open") return Workload::kMixedOpen;
  throw std::invalid_argument("unknown workload: " + name);
}

// -- TCP ----------------------------------------------------------------------

TcpTransport::TcpTransport(uint16_t port, int connections) {
  for (int i = 0; i < connections; ++i) {
    try {
      fds_.push_back(connect_loopback(port));
    } catch (...) {
      for (int fd : fds_) ::close(fd);
      throw;
    }
  }
  inbuf_.resize(fds_.size());
}

TcpTransport::~TcpTransport() {
  for (int fd : fds_) ::close(fd);
}

void TcpTransport::send(int conn, uint64_t first_id,
                        const std::vector<const Item*>& items) {
  std::vector<uint8_t> buf;
  for (size_t i = 0; i < items.size(); ++i) {
    litho::net::FrameHeader h;
    h.version = litho::net::kVersionLegacy;
    h.type = litho::net::FrameType::kPredict;
    h.request_id = first_id + i;
    h.payload_bytes = static_cast<uint32_t>(items[i]->mask_payload.size());
    litho::net::encode_header(h, buf);
    buf.insert(buf.end(), items[i]->mask_payload.begin(),
               items[i]->mask_payload.end());
  }
  send_all(fds_[static_cast<size_t>(conn)], buf.data(), buf.size());
}

Reply TcpTransport::recv(int conn, Clock::time_point deadline) {
  const int fd = fds_[static_cast<size_t>(conn)];
  std::vector<uint8_t>& in = inbuf_[static_cast<size_t>(conn)];
  Reply r;
  for (;;) {
    if (in.size() >= litho::net::kHeaderBytes) {
      litho::net::FrameHeader h;
      if (!litho::net::decode_header(in.data(), h)) return r;  // lost
      const size_t total = litho::net::kHeaderBytes + h.payload_bytes;
      if (in.size() >= total) {
        r.id = h.request_id;
        switch (h.type) {
          case litho::net::FrameType::kContour:
            r.kind = Reply::Kind::kContour;
            r.payload.assign(in.begin() + litho::net::kHeaderBytes,
                             in.begin() + static_cast<ptrdiff_t>(total));
            break;
          case litho::net::FrameType::kBusy:
            r.kind = Reply::Kind::kBusy;
            break;
          default:
            r.kind = Reply::Kind::kError;
            break;
        }
        in.erase(in.begin(), in.begin() + static_cast<ptrdiff_t>(total));
        return r;
      }
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return r;
    pollfd p{fd, POLLIN, 0};
    const int ready =
        ::poll(&p, 1, static_cast<int>(std::min<int64_t>(left.count(), 1000)));
    if (ready < 0 && errno != EINTR) return r;
    if (ready <= 0) continue;
    uint8_t chunk[1 << 16];
    const ssize_t k = ::recv(fd, chunk, sizeof(chunk), 0);
    if (k == 0 || (k < 0 && errno != EINTR && errno != EAGAIN)) return r;
    if (k > 0) in.insert(in.end(), chunk, chunk + k);
  }
}

void send_shutdown(uint16_t port) {
  const int fd = connect_loopback(port);
  const std::vector<uint8_t> frame = litho::net::make_shutdown_frame();
  try {
    send_all(fd, frame.data(), frame.size());
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

// -- Scheduler-direct ---------------------------------------------------------

SchedulerTransport::SchedulerTransport(litho::runtime::Scheduler& scheduler,
                                       int connections)
    : scheduler_(scheduler), conns_(static_cast<size_t>(connections)) {}

void SchedulerTransport::send(int conn, uint64_t first_id,
                              const std::vector<const Item*>& items) {
  Conn& c = conns_[static_cast<size_t>(conn)];
  for (size_t i = 0; i < items.size(); ++i) {
    Pending p;
    p.id = first_id + i;
    p.future = scheduler_.try_submit(items[i]->mask, p.id);
    std::lock_guard<std::mutex> lock(c.mutex);
    c.pending.push_back(std::move(p));
  }
  c.ready.notify_one();
}

Reply SchedulerTransport::recv(int conn, Clock::time_point deadline) {
  Conn& c = conns_[static_cast<size_t>(conn)];
  Pending p;
  {
    std::unique_lock<std::mutex> lock(c.mutex);
    if (!c.ready.wait_until(lock, deadline,
                            [&] { return !c.pending.empty(); })) {
      return Reply{};
    }
    p = std::move(c.pending.front());
    c.pending.pop_front();
  }
  Reply r;
  r.id = p.id;
  if (!p.future) {
    r.kind = Reply::Kind::kBusy;
    return r;
  }
  if (p.future->wait_until(deadline) != std::future_status::ready) return r;
  try {
    litho::net::encode_image(p.future->get(), r.payload);
    r.kind = Reply::Kind::kContour;
  } catch (const std::exception&) {
    r.kind = Reply::Kind::kError;
  }
  return r;
}

// -- Traffic ------------------------------------------------------------------

int64_t warm_up(Transport& t, const Inputs& in, bool with_large,
                uint64_t first_id, int64_t& failed) {
  failed = 0;
  uint64_t id = first_id;
  size_t next_tile = 0;
  const auto deadline = [] { return Clock::now() + std::chrono::seconds(60); };
  for (int round = 0; round < 2; ++round) {
    for (int n = 1; n <= 8; ++n) {
      std::vector<const Item*> burst;
      for (int i = 0; i < n; ++i) {
        burst.push_back(&in.tiles[next_tile++ % in.tiles.size()]);
      }
      t.send(0, id, burst);
      for (int i = 0; i < n; ++i) {
        const Reply r = t.recv(0, deadline());
        if (r.id != id + static_cast<uint64_t>(i) ||
            check(r, *burst[static_cast<size_t>(i)]) != Outcome::kOk) {
          ++failed;
        }
      }
      id += static_cast<uint64_t>(n);
    }
  }
  if (with_large) {
    const Item& item = in.large.front();
    t.send(0, id, {&item});
    const Reply r = t.recv(0, deadline());
    if (r.id != id || check(r, item) != Outcome::kOk) ++failed;
    ++id;
  }
  return static_cast<int64_t>(id - first_id);
}

std::vector<Record> run_closed(Transport& t, const Inputs& in, int clients,
                               double seconds, uint64_t seed,
                               uint64_t first_id) {
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::atomic<uint64_t> next_id{first_id};
  std::vector<std::vector<Record>> per_client(static_cast<size_t>(clients));
  std::vector<std::function<void()>> roles;
  for (int c = 0; c < clients; ++c) {
    roles.emplace_back([&, c] {
      std::mt19937_64 rng(seed * 1000003u + static_cast<uint64_t>(c));
      std::vector<Record>& out = per_client[static_cast<size_t>(c)];
      for (Clock::time_point now = Clock::now(); now < end;
           now = Clock::now()) {
        const Item& item = in.tiles[rng() % in.tiles.size()];
        const uint64_t id = next_id.fetch_add(1);
        Record rec;
        rec.start_ms = ms_since(t0, now);
        t.send(c, id, {&item});
        const Reply r = t.recv(c, end + kDrain);
        if (r.kind != Reply::Kind::kLost) {
          rec.end_ms = ms_since(t0, Clock::now());
        }
        rec.outcome = r.id == id || r.kind == Reply::Kind::kLost
                          ? check(r, item)
                          : Outcome::kMismatch;
        out.push_back(rec);
        if (r.kind == Reply::Kind::kLost) break;  // connection is gone
      }
    });
  }
  run_roles(roles);
  std::vector<Record> all;
  for (const auto& v : per_client) all.insert(all.end(), v.begin(), v.end());
  return all;
}

std::vector<Arrival> make_open_schedule(uint64_t seed, double seconds,
                                        double tile_rate, double large_rate) {
  std::vector<Arrival> out;
  const struct {
    uint8_t cls;
    double rate;
    int pool;
  } streams[] = {{kTile, tile_rate, kTilePool}, {kLarge, large_rate, kLargePool}};
  for (const auto& s : streams) {
    std::mt19937_64 rng(seed * 7919u + s.cls + 1);
    std::uniform_real_distribution<double> offset(0.0, 1.0);
    const double slot_ms = 1000.0 / s.rate;
    const int64_t n = static_cast<int64_t>(seconds * s.rate);
    for (int64_t i = 0; i < n; ++i) {
      const double due = (static_cast<double>(i) + offset(rng)) * slot_ms;
      out.push_back(Arrival{due, s.cls,
                            static_cast<int>(rng() % static_cast<uint64_t>(s.pool))});
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.due_ms < b.due_ms;
                   });
  return out;
}

std::vector<Record> run_open(Transport& t, const Inputs& in,
                             const std::vector<Arrival>& schedule,
                             uint64_t first_id) {
  std::vector<Record> records(schedule.size());
  std::vector<size_t> by_conn[2];
  for (size_t i = 0; i < schedule.size(); ++i) {
    records[i].cls = schedule[i].cls;
    records[i].start_ms = schedule[i].due_ms;
    by_conn[schedule[i].cls == kLarge ? 1 : 0].push_back(i);
  }
  const Clock::time_point t0 = Clock::now();
  const auto at = [t0](double ms) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
  };
  const Clock::time_point deadline =
      at(schedule.empty() ? 0.0 : schedule.back().due_ms) + kDrain;

  std::vector<std::function<void()>> roles;
  for (int conn = 0; conn < 2; ++conn) {
    const std::vector<size_t>& mine = by_conn[conn];
    roles.emplace_back([&, conn] {  // sender
      for (size_t i : mine) {
        std::this_thread::sleep_until(at(schedule[i].due_ms));
        records[i].late_ms = ms_since(t0, Clock::now()) - schedule[i].due_ms;
        t.send(conn, first_id + i,
               {&pick(in, schedule[i].cls, schedule[i].item)});
      }
    });
    roles.emplace_back([&, conn] {  // reader
      for (size_t got = 0; got < mine.size(); ++got) {
        const Reply r = t.recv(conn, deadline);
        if (r.kind == Reply::Kind::kLost) return;  // the rest stay lost
        const double now_ms = ms_since(t0, Clock::now());
        if (r.id < first_id || r.id - first_id >= schedule.size()) continue;
        const size_t i = static_cast<size_t>(r.id - first_id);
        records[i].end_ms = now_ms;
        records[i].outcome =
            check(r, pick(in, schedule[i].cls, schedule[i].item));
      }
    });
  }
  run_roles(roles);
  return records;
}

int workload_connections(Workload w) {
  return w == Workload::kTileClosed ? 4 : 2;
}

std::vector<Record> run_workload(Workload w, Transport& t, const Inputs& in,
                                 double seconds, uint64_t seed,
                                 uint64_t first_id) {
  if (w == Workload::kTileClosed) {
    return run_closed(t, in, 4, seconds, seed, first_id);
  }
  return run_open(t, in,
                  make_open_schedule(seed, seconds, kMixedTileRate,
                                     kMixedLargeRate),
                  first_id);
}

std::string records_json(const std::vector<Record>& records) {
  std::string out = "[";
  char buf[128];
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::snprintf(buf, sizeof(buf), "%s[%d,%d,%.4f,%.4f,%.4f]",
                  i == 0 ? "" : ",", r.cls, static_cast<int>(r.outcome),
                  r.start_ms, r.end_ms, r.late_ms);
    out += buf;
  }
  return out + "]";
}

}  // namespace servebench
