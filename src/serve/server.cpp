#include "serve/server.h"

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#ifndef _WIN32
#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include "common/logging.h"
#include "common/strings.h"

namespace pim::serve {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// RAII admission slot: counts this request against --max-inflight and
/// refuses with a structured "overloaded" error when the server is full.
/// stats/shutdown never take a slot — a saturated server stays observable
/// and stoppable.
class AdmissionGuard {
 public:
  AdmissionGuard(std::atomic<unsigned>& inflight, unsigned max_inflight,
                 telemetry::Registry& registry)
      : inflight_(inflight), registry_(registry) {
    const unsigned now = inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (now > max_inflight) {
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      registry_.counter("serve.rejected").add();
      throw ProtocolError(errc::kOverloaded,
                          strformat("%u request%s already in flight (max %u)", now - 1,
                                    now - 1 == 1 ? "" : "s", max_inflight));
    }
    admitted_ = true;
    registry_.gauge("serve.inflight").set(static_cast<double>(now));
  }
  ~AdmissionGuard() {
    if (admitted_) {
      const unsigned now = inflight_.fetch_sub(1, std::memory_order_relaxed) - 1;
      registry_.gauge("serve.inflight").set(static_cast<double>(now));
    }
  }
  AdmissionGuard(const AdmissionGuard&) = delete;
  AdmissionGuard& operator=(const AdmissionGuard&) = delete;

 private:
  std::atomic<unsigned>& inflight_;
  telemetry::Registry& registry_;
  bool admitted_ = false;
};

#ifndef _WIN32
bool send_all(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    // MSG_NOSIGNAL: a client that hung up mid-reply costs EPIPE here, never
    // a process-killing SIGPIPE.
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}
#endif

}  // namespace

Server::Server(const ServerOptions& opt)
    : opt_(opt), store_(std::make_shared<artifact::Store>()), runner_(opt.jobs) {
  runner_.set_artifacts(store_);
  runner_.set_metrics(&registry_);
  runner_.set_scenario_timeout_ms(opt_.scenario_timeout_ms);
  if (!opt_.cache_dir.empty()) {
    l2_ = std::make_unique<dse::ResultCache>(opt_.cache_dir, opt_.cache_cap_bytes);
    l2_->set_metrics(&registry_);
    if (!l2_->enabled()) l2_.reset();  // unusable directory: serve without L2
  }
}

json::Value Server::stats_snapshot() {
  json::Value v = registry_.to_json();
  // BatchRunner publishes a per-run store delta, but concurrent runs share
  // one store, so those delta windows overlap and the registry overcounts
  // under load. The store's own monotonic totals are the truth; snapshot
  // them over the top so artifact.* stays exact.
  const artifact::StoreStats totals = store_->stats();
  json::Value& counters = v["counters"];
  counters["artifact.graph_hits"] = json::Value(static_cast<uint64_t>(totals.graph_hits));
  counters["artifact.graph_misses"] = json::Value(static_cast<uint64_t>(totals.graph_misses));
  counters["artifact.program_hits"] = json::Value(static_cast<uint64_t>(totals.program_hits));
  counters["artifact.program_misses"] =
      json::Value(static_cast<uint64_t>(totals.program_misses));
  counters["artifact.evictions"] = json::Value(static_cast<uint64_t>(totals.evictions));
  return v;
}

std::string Server::handle_line(const std::string& line) {
  registry_.counter("serve.requests").add();
  json::Value id;  // null until the request parsed far enough to carry one
  try {
    Request req = parse_request(line, opt_.max_request_bytes);
    id = req.id;
    return handle_request(req).dump();
  } catch (const ProtocolError& e) {
    registry_.counter("serve.errors").add();
    return error_reply(id, e.code(), e.what()).dump();
  } catch (const std::exception& e) {
    registry_.counter("serve.errors").add();
    return error_reply(id, errc::kBadRequest, e.what()).dump();
  }
}

json::Value Server::handle_request(const Request& req) {
  // A draining server still answers stats (observability) and shutdown
  // (idempotent) but takes no new work.
  if (stopping() && (req.kind == Kind::Evaluate || req.kind == Kind::Batch)) {
    throw ProtocolError(errc::kShuttingDown, "server is draining and accepts no new work");
  }
  switch (req.kind) {
    case Kind::Evaluate:
      return handle_evaluate(req);
    case Kind::Batch:
      return handle_batch(req);
    case Kind::Stats: {
      json::Value v = ok_reply(req);
      v["stats"] = stats_snapshot();
      return v;
    }
    case Kind::Shutdown: {
      json::Value v = ok_reply(req);
      request_stop();
      PIM_LOG(Info) << "serve: shutdown requested; draining";
      return v;
    }
  }
  throw ProtocolError(errc::kBadRequest, "unhandled request kind");
}

json::Value Server::handle_evaluate(const Request& req) {
  AdmissionGuard slot(inflight_, opt_.max_inflight, registry_);
  registry_.counter("serve.evaluates").add();
  const Clock::time_point start = Clock::now();

  runtime::Scenario s = scenario_from_request(req.body, opt_.base_dir);
  if (s.arch.sim.max_time_ps == 0 && opt_.default_max_time_ps > 0) {
    s.arch.sim.max_time_ps = opt_.default_max_time_ps;
  }

  // Durable L2 lookup: the key is the full scenario cache key (simulator
  // model version, architecture JSON incl. budgets, workload content
  // fingerprint, compile options), so an entry written for another scenario
  // or by a build whose answers differ (a bumped dse::kSimModelVersion) never
  // hits; the "serve-report:" prefix keeps these whole-
  // Report documents disjoint from pimdse's metric entries in a shared
  // --cache-dir. An unreadable graph file makes the key unavailable — run
  // the scenario anyway and let it produce the real error.
  std::string key;
  if (l2_ != nullptr) {
    try {
      key = "serve-report:" + dse::scenario_key(s);
    } catch (const std::exception&) {
      key.clear();
    }
    if (!key.empty()) {
      json::Value doc;
      bool hit = false;
      {
        std::lock_guard<std::mutex> lock(l2_mutex_);
        hit = l2_->load_document(key, &doc);
      }
      if (hit) {
        registry_.counter("serve.l2_hits").add();
        json::Value v = ok_reply(req);
        v["name"] = json::Value(s.name);
        v["cached"] = json::Value(true);
        v["wall_ms"] = json::Value(ms_since(start));
        v["report"] = doc.at("report");
        return v;
      }
      registry_.counter("serve.l2_misses").add();
    }
  }

  runtime::BatchResult res = runner_.run({s});
  const runtime::ScenarioResult& r = res.results.at(0);
  if (!r.ok) {
    const bool budget = r.fail_kind == runtime::FailKind::SimTimeout ||
                        r.fail_kind == runtime::FailKind::WallTimeout;
    throw ProtocolError(budget ? errc::kBudgetExceeded : errc::kEvaluateFailed, r.error);
  }

  json::Value report = r.report.to_json();
  if (l2_ != nullptr && !key.empty()) {
    // Only completed results are durable: a budget kill or compile error is
    // not a property worth replaying.
    json::Value doc;
    doc["name"] = json::Value(s.name);
    doc["report"] = report;
    std::lock_guard<std::mutex> lock(l2_mutex_);
    l2_->store_document(key, std::move(doc));
  }

  json::Value v = ok_reply(req);
  v["name"] = json::Value(s.name);
  v["cached"] = json::Value(false);
  v["wall_ms"] = json::Value(r.wall_ms);
  v["report"] = std::move(report);
  return v;
}

json::Value Server::handle_batch(const Request& req) {
  AdmissionGuard slot(inflight_, opt_.max_inflight, registry_);
  registry_.counter("serve.batches").add();

  std::vector<runtime::Scenario> scenarios = sweep_from_request(req.body, opt_.base_dir);
  if (opt_.default_max_time_ps > 0) {
    for (runtime::Scenario& s : scenarios) {
      if (s.arch.sim.max_time_ps == 0) s.arch.sim.max_time_ps = opt_.default_max_time_ps;
    }
  }
  runtime::BatchResult res = runner_.run(scenarios);
  json::Value v = ok_reply(req);
  v["ok"] = json::Value(res.all_ok());
  v["result"] = res.to_json();
  return v;
}

// ---------------------------------------------------------------------------
// Socket layer (POSIX). handle_line above is the whole protocol; everything
// below only frames newline-delimited lines in and replies out.
// ---------------------------------------------------------------------------

#ifndef _WIN32

void Server::listen() {
  if (opt_.unix_path.empty() && opt_.tcp_port < 0) {
    throw std::runtime_error("nothing to listen on (need a unix path or a TCP port)");
  }
  if (!opt_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opt_.unix_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("unix socket path too long: " + opt_.unix_path);
    }
    std::memcpy(addr.sun_path, opt_.unix_path.c_str(), opt_.unix_path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("cannot create unix socket");
    ::unlink(opt_.unix_path.c_str());  // a stale path from a dead daemon
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
      const std::string why = std::strerror(errno);
      ::close(fd);
      throw std::runtime_error("cannot listen on " + opt_.unix_path + ": " + why);
    }
    listen_fds_.push_back(fd);
  }
  if (opt_.tcp_port >= 0) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // local clients only
    addr.sin_port = htons(static_cast<uint16_t>(opt_.tcp_port));
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("cannot create TCP socket");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
      const std::string why = std::strerror(errno);
      ::close(fd);
      throw std::runtime_error(strformat("cannot listen on 127.0.0.1:%d: ", opt_.tcp_port) +
                               why);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      bound_tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
    }
    listen_fds_.push_back(fd);
  }
}

void Server::serve() {
  std::vector<std::thread> connections;
  std::vector<pollfd> fds;
  fds.reserve(listen_fds_.size());
  for (const int fd : listen_fds_) fds.push_back(pollfd{fd, POLLIN, 0});

  // Accept loop with a 100 ms tick: a stop request (served "shutdown" or the
  // SIGINT flag) is noticed within one tick, after which no new connection
  // is accepted.
  while (!stopping()) {
    for (pollfd& p : fds) p.revents = 0;
    const int pr = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 100);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pr == 0) continue;
    for (const pollfd& p : fds) {
      if ((p.revents & POLLIN) == 0) continue;
      const int c = ::accept(p.fd, nullptr, nullptr);
      if (c < 0) continue;
      registry_.counter("serve.connections").add();
      connections.emplace_back(&Server::serve_connection, this, c);
    }
  }

  // Stop accepting immediately, then drain: every connection thread finishes
  // the requests it already received and exits on its next idle tick.
  for (const int fd : listen_fds_) ::close(fd);
  listen_fds_.clear();
  if (!opt_.unix_path.empty()) ::unlink(opt_.unix_path.c_str());
  for (std::thread& t : connections) t.join();
}

void Server::serve_connection(int fd) {
  std::string buf;
  char chunk[4096];
  for (;;) {
    // Serve every complete line already buffered before reading more: a
    // pipelining client gets its replies in request order.
    size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      if (!send_all(fd, handle_line(line) + "\n")) {
        ::close(fd);
        return;
      }
    }
    // A line that outgrew the request cap without ever ending is refused and
    // the connection dropped — the framing itself is broken at that point.
    if (opt_.max_request_bytes > 0 && buf.size() > opt_.max_request_bytes) {
      registry_.counter("serve.errors").add();
      send_all(fd, error_reply(json::Value(), errc::kBadRequest,
                               strformat("request line exceeds the %zu-byte limit",
                                         opt_.max_request_bytes))
                           .dump() +
                       "\n");
      ::close(fd);
      return;
    }
    pollfd p{fd, POLLIN, 0};
    const int pr = ::poll(&p, 1, 100);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pr == 0) {
      // Idle tick: a draining server closes idle connections (anything the
      // client already sent was handled above).
      if (stopping() && buf.empty()) break;
      continue;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // EOF or error: client is done
    buf.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
}

#else  // _WIN32: the protocol (handle_line) works; only the transport is absent.

void Server::listen() {
  throw std::runtime_error("pimserved sockets are not supported on this platform");
}
void Server::serve() {}
void Server::serve_connection(int) {}

#endif

}  // namespace pim::serve
