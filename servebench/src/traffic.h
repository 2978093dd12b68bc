// Traffic generation for the serving benchmark: closed loops, the seeded
// open-loop schedule, warm-up bursts, and two transports the same traffic
// runs over — the TCP protocol (doinn_serve or an in-process net::Server)
// and Scheduler::try_submit directly.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "inputs.h"
#include "runtime/scheduler.h"

namespace servebench {

using Clock = std::chrono::steady_clock;

enum class Workload { kTileClosed, kMixedOpen };

/// Parses "tile_closed" / "mixed_open"; throws otherwise.
Workload parse_workload(const std::string& name);

enum Cls : uint8_t { kTile = 0, kLarge = 1 };

enum class Outcome : uint8_t { kOk = 0, kMismatch, kBusy, kError, kLost };

/// One request as the generator saw it. Times are ms from the window start.
struct Record {
  uint8_t cls = kTile;
  Outcome outcome = Outcome::kLost;
  /// Closed loop: when the request was sent. Open loop: when it was due.
  double start_ms = 0.0;
  /// When the full reply was received; negative when none arrived.
  double end_ms = -1.0;
  /// Open loop only: how late the generator sent it (send - due).
  double late_ms = 0.0;
};

/// A reply handed back by a transport, not yet checked.
struct Reply {
  enum class Kind : uint8_t { kContour, kBusy, kError, kLost };
  Kind kind = Kind::kLost;
  uint64_t id = 0;
  std::vector<uint8_t> payload;  ///< contour image payload (kContour)
};

/// Moves requests to a server over a fixed set of connections. Each
/// connection has at most one sending and one receiving thread at a time,
/// and replies on a connection come back in the order the requests went
/// out.
class Transport {
 public:
  virtual ~Transport() = default;
  /// Sends the requests back to back (one write for the TCP transport), so
  /// a burst of n reaches the scheduler together and forms one batch.
  virtual void send(int conn, uint64_t first_id,
                    const std::vector<const Item*>& items) = 0;
  /// Next reply on @p conn, or kLost once @p deadline passes or the
  /// connection fails.
  virtual Reply recv(int conn, Clock::time_point deadline) = 0;
};

/// Framed protocol over loopback TCP, one socket per connection.
class TcpTransport final : public Transport {
 public:
  TcpTransport(uint16_t port, int connections);
  ~TcpTransport() override;
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  void send(int conn, uint64_t first_id,
            const std::vector<const Item*>& items) override;
  Reply recv(int conn, Clock::time_point deadline) override;

 private:
  std::vector<int> fds_;
  std::vector<std::vector<uint8_t>> inbuf_;  ///< per connection, reader-owned
};

/// Scheduler::try_submit with the futures waited in submission order: the
/// same traffic with the socket layer taken out.
class SchedulerTransport final : public Transport {
 public:
  SchedulerTransport(litho::runtime::Scheduler& scheduler, int connections);

  void send(int conn, uint64_t first_id,
            const std::vector<const Item*>& items) override;
  Reply recv(int conn, Clock::time_point deadline) override;

 private:
  struct Pending {
    uint64_t id = 0;
    std::optional<std::future<litho::Tensor>> future;  ///< nullopt = busy
  };
  struct Conn {
    std::mutex mutex;
    std::condition_variable ready;
    std::deque<Pending> pending;
  };
  litho::runtime::Scheduler& scheduler_;
  std::deque<Conn> conns_;
};

/// Sends a SHUTDOWN frame to the server on @p port.
void send_shutdown(uint16_t port);

/// Warm-up: two rounds of pipelined bursts of n = 1..8 tiles on connection
/// 0 (each burst forms one batch of n, so every batch plan the timed window
/// can touch is built), then one large mask when @p with_large. Returns the
/// number of requests sent; @p failed counts replies that were not the
/// byte-exact reference.
int64_t warm_up(Transport& t, const Inputs& in, bool with_large,
                uint64_t first_id, int64_t& failed);

/// Closed loop: @p clients connections each send a tile (pool item chosen
/// by a per-client seeded stream), wait for its reply, and repeat until
/// @p seconds have passed. Runs one client on the calling thread and the
/// rest on their own threads.
std::vector<Record> run_closed(Transport& t, const Inputs& in, int clients,
                               double seconds, uint64_t seed,
                               uint64_t first_id);

/// One open-loop arrival.
struct Arrival {
  double due_ms = 0.0;
  uint8_t cls = kTile;
  int item = 0;
};

/// Open-loop tile rate and large rate of the mixed workload (arrivals/s).
/// A batch-1 tile costs ~5 ms and a large mask ~165 ms on 2 threads, so
/// this offers ~30% of capacity: on a shared host whose speed swings up to
/// 2x, the loop then stays stable in slow phases (at 60 + 1/s, half of
/// capacity, it overloaded there and the tile p50 jumped to ~100 ms).
constexpr double kMixedTileRate = 40.0;
constexpr double kMixedLargeRate = 0.5;

/// Seeded arrivals at fixed absolute rates over @p seconds, merged in due
/// order. Each stream has exactly one arrival per 1/rate slot, at a seeded
/// uniform offset inside the slot. Unlike Poisson arrivals, every seed then
/// offers the same load and the same number of large masks, and large
/// masks cluster far less. With Poisson large arrivals the tile p99 of a
/// 20 s window spread by 33-75% from seed to seed, because it is set by
/// how often two or three large masks happen to arrive together.
std::vector<Arrival> make_open_schedule(uint64_t seed, double seconds,
                                        double tile_rate, double large_rate);

/// Open loop over two connections: tiles on connection 0, large masks on
/// connection 1, each with its own sender and reader thread (4 threads in
/// all, one of them the caller). Requests are timed from their due time.
std::vector<Record> run_open(Transport& t, const Inputs& in,
                             const std::vector<Arrival>& schedule,
                             uint64_t first_id);

/// Runs @p w's traffic for @p seconds over @p t (which must have the
/// connection count workload_connections(w) gives).
std::vector<Record> run_workload(Workload w, Transport& t, const Inputs& in,
                                 double seconds, uint64_t seed,
                                 uint64_t first_id);
int workload_connections(Workload w);

/// Records as a JSON array of [cls, outcome, start_ms, end_ms, late_ms].
std::string records_json(const std::vector<Record>& records);

}  // namespace servebench
