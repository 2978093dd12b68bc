// sbtool: the serving benchmark's native half. servebench/run.py drives it.
//
//   sbtool prepare --seed S --dir D
//       Writes the seeded checkpoint, mask pools and op-walk references.
//   sbtool serve --server doinn_serve --dir D --workload W --seconds T
//                --seed S --setups K --out F [--trace-out F2] [--corrupt-ref]
//       Spawns doinn_serve K times (timing spawn -> "listening" -> warm-up
//       done each time) and runs W's traffic for T seconds against the last
//       one. Writes the per-request records and the server's VmHWM to F.
//       --corrupt-ref flips one byte of one tile reference (self-test).
//   sbtool layers --dir D --workload W --seconds T --seed S --out F
//                 [--gemm m_k_l,...]
//       In-process per-layer probes (see layers.h).
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "args.h"
#include "inputs.h"
#include "layers.h"
#include "traffic.h"

extern char** environ;

namespace servebench {
namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One doinn_serve child on an ephemeral port. The constructor returns once
/// the server printed its "listening on port" line; the destructor kills a
/// child that stop() did not end.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary,
                const std::vector<std::string>& args) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ == 0) {
      // The server must not outlive the benchmark, even when the benchmark
      // is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      ::execve(binary.c_str(), argv.data(), environ);
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (pid_ < 0) {
      ::close(out_fd_);
      throw std::runtime_error("cannot spawn " + binary);
    }
    try {
      port_ = wait_for_port();
    } catch (...) {
      kill_and_reap();
      throw;
    }
  }

  ~ServerProcess() { kill_and_reap(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }

  /// Peak resident set of the server so far (VmHWM), in kB.
  int64_t vm_hwm_kb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::stoll(line.substr(6));
    }
    return 0;
  }

  /// Asks the server to drain and exit, and reaps it. Returns its exit
  /// status (-1 when it had to be killed).
  int stop() {
    send_shutdown(port_);
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(120);
    while (Clock::now() < deadline) {
      forward_output(100);
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        for (int i = 0; i < 1000 && forward_output(0); ++i) {
        }
        ::close(out_fd_);
        out_fd_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
    }
    kill_and_reap();
    return -1;
  }

 private:
  uint16_t wait_for_port() {
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(120);
    const std::string marker = "listening on port ";
    while (Clock::now() < deadline) {
      if (!read_some(1000)) {
        throw std::runtime_error("doinn_serve exited before listening");
      }
      const size_t at = text_.find(marker);
      const size_t eol =
          at == std::string::npos ? at : text_.find('\n', at);
      if (eol != std::string::npos) {
        return static_cast<uint16_t>(
            std::stoul(text_.substr(at + marker.size())));
      }
    }
    throw std::runtime_error("doinn_serve did not start listening");
  }

  // Reads what the child printed within @p timeout_ms; false at EOF.
  bool read_some(int timeout_ms) {
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) <= 0) return true;
    char buf[4096];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n <= 0) return false;
    text_.append(buf, static_cast<size_t>(n));
    return true;
  }

  // Moves what the child printed within @p timeout_ms to stderr, so its
  // stdout pipe never fills; false at EOF.
  bool forward_output(int timeout_ms) {
    const size_t before = text_.size();
    const bool open = read_some(timeout_ms);
    if (text_.size() > before) std::fputs(text_.c_str() + before, stderr);
    return open;
  }

  void kill_and_reap() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
  std::string text_;
};

int cmd_serve(const litho::apps::Args& args) {
  const std::string dir = args.get("dir");
  const Workload w = parse_workload(args.get("workload"));
  const double seconds = args.get_double("seconds", 10.0);
  const uint64_t seed = static_cast<uint64_t>(args.get_int("seed", 1));
  const int setups = static_cast<int>(args.get_positive_int("setups", 3));
  const std::string trace_out = args.get("trace-out", "");

  Inputs in = load_inputs(dir);
  if (args.get_bool("corrupt-ref")) {
    std::vector<uint8_t>& ref = in.tiles.front().ref_payload;
    ref.back() ^= 0xFF;  // one pixel of the first pool tile's reference
  }
  std::vector<std::string> server_args = {
      "--weights", checkpoint_path(dir), "--listen", "0", "--threads", "2"};
  if (!trace_out.empty()) {
    server_args.push_back("--trace-out");
    server_args.push_back(trace_out);
  }

  std::ostringstream setup_json;
  std::vector<Record> records;
  int64_t warm_requests = 0, warm_failed = 0, rss_kb = 0;
  int exit_status = 0;
  for (int s = 0; s < setups; ++s) {
    const Clock::time_point t_spawn = Clock::now();
    ServerProcess server(args.get("server"), server_args);
    const Clock::time_point t_listen = Clock::now();
    {
      TcpTransport t(server.port(), workload_connections(w));
      int64_t failed = 0;
      warm_requests = warm_up(t, in, w != Workload::kTileClosed, 1, failed);
      warm_failed += failed;
      const Clock::time_point t_warm = Clock::now();
      setup_json << (s == 0 ? "" : ",") << "{\"load_s\":"
                 << seconds_between(t_spawn, t_listen)
                 << ",\"warm_s\":" << seconds_between(t_listen, t_warm)
                 << "}";
      if (s + 1 == setups) {
        records = run_workload(w, t, in, seconds, seed,
                               static_cast<uint64_t>(warm_requests) + 1);
        rss_kb = server.vm_hwm_kb();
      }
    }
    exit_status |= server.stop();
  }

  std::ofstream out(args.get("out"));
  out.precision(9);
  out << "{\"setups\":[" << setup_json.str() << "],\"warm_requests\":"
      << warm_requests << ",\"warm_failed\":" << warm_failed
      << ",\"window_s\":" << seconds << ",\"rss_kb\":" << rss_kb
      << ",\"server_exit\":" << exit_status
      << ",\"records\":" << records_json(records) << "}\n";
  return out ? 0 : 1;
}

int cmd_prepare(const litho::apps::Args& args) {
  prepare_inputs(static_cast<uint64_t>(args.get_int("seed", 1)),
                 args.get("dir"));
  return 0;
}

int cmd_layers(const litho::apps::Args& args) {
  std::vector<GemmShape> shapes;
  std::stringstream list(args.get("gemm", ""));
  for (std::string tok; std::getline(list, tok, ',');) {
    GemmShape g;
    if (std::sscanf(tok.c_str(), "%ld_%ld_%ld", &g.m, &g.k, &g.l) != 3) {
      throw std::invalid_argument("bad --gemm shape: " + tok);
    }
    shapes.push_back(g);
  }
  const std::string dir = args.get("dir");
  const std::string json = run_layers(
      load_inputs(dir), checkpoint_path(dir),
      parse_workload(args.get("workload")), args.get_double("seconds", 10.0),
      static_cast<uint64_t>(args.get_int("seed", 1)), shapes);
  std::ofstream out(args.get("out"));
  out << json << "\n";
  return out ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: sbtool prepare|serve|layers --flag value...\n");
    return 2;
  }
  ::signal(SIGPIPE, SIG_IGN);
  // Die with the parent (run.py), taking the server child along.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  try {
    const std::string cmd = argv[1];
    const litho::apps::Args args(argc, argv, 2);
    if (cmd == "prepare") return servebench::cmd_prepare(args);
    if (cmd == "serve") return servebench::cmd_serve(args);
    if (cmd == "layers") return servebench::cmd_layers(args);
    std::fprintf(stderr, "sbtool: unknown command %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sbtool: %s\n", e.what());
    return 1;
  }
}
