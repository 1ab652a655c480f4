// In-process observability scrape server — the engine's first
// wire-serving code, deliberately minimal: one listener thread,
// blocking HTTP/1.0, one request per connection, loopback only, no
// dependencies. It serves the operability plane a scraper or a human
// needs against a running engine:
//
//   /metrics   Prometheus text exposition (MetricsRegistry)
//   /varz      the registry's JSON snapshot
//   /healthz   composed health report — 200 when charges can be made
//              durable, 503 once the journal is poisoned (the same
//              fail-closed signal requests are refused with)
//   /flightz   the flight recorder's JSONL dump
//
// This is an ops plane, not a data plane: it binds 127.0.0.1 only,
// never reads request bodies, and serves nothing derived from raw
// data — only aggregates the telemetry layer already exposes. The
// real client-facing front end (framed binary protocol, auth,
// connection broker) is a separate ROADMAP item; this listener's job
// is to make the engine observable the day that broker ships.
//
// Handlers run on the listener thread, one request at a time. They
// take component locks (registry mutex, audit mutex) but must never
// block on engine work — every handler here snapshots and returns.

#ifndef BLOWFISH_ENGINE_OBS_SERVER_H_
#define BLOWFISH_ENGINE_OBS_SERVER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "common/status.h"

namespace blowfish {

/// \brief One composed health probe result: `ok` selects 200 vs 503,
/// `body` is the JSON report served either way.
struct HealthReport {
  bool ok = true;
  std::string body;
};

/// \brief The four endpoint producers. Unset handlers 404.
struct ObsHandlers {
  std::function<std::string()> metrics_text;   ///< /metrics
  std::function<std::string()> varz_json;      ///< /varz
  std::function<HealthReport()> healthz;       ///< /healthz
  std::function<std::string()> flightz_jsonl;  ///< /flightz
};

/// \brief Minimal blocking HTTP/1.0 scrape server. Start() binds
/// 127.0.0.1:`port` (port 0 asks the OS for an ephemeral port — the
/// test- and bench-friendly mode; port() reports what was bound),
/// spawns the listener thread, and serves until destruction.
class ObsServer {
 public:
  static Result<std::unique_ptr<ObsServer>> Start(int port,
                                                  ObsHandlers handlers);
  ~ObsServer();
  ObsServer(const ObsServer&) = delete;
  ObsServer& operator=(const ObsServer&) = delete;

  /// The bound TCP port (resolved when Start was given port 0).
  int port() const { return port_; }
  /// Requests served since start (any endpoint, any status).
  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Stops accepting and joins the listener. Idempotent; the
  /// destructor calls it.
  void Stop();

 private:
  ObsServer(int fd, int port, ObsHandlers handlers);
  void Serve();
  void HandleConnection(int fd);

  int listen_fd_;
  int port_;
  ObsHandlers handlers_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> requests_{0};
  std::thread thread_;
};

/// \brief A minimal HTTP/1.0 GET against 127.0.0.1:`port` — the
/// client half the bench's scraper loop and the tests use (a real
/// monitoring stack brings its own scraper; this one exists so the
/// repo can exercise the server without a curl dependency).
struct HttpResponse {
  int status = 0;       ///< parsed status code (0 = malformed)
  std::string body;     ///< everything after the header block
  std::string headers;  ///< raw status + header lines
};
Result<HttpResponse> ObsHttpGet(int port, const std::string& path);

}  // namespace blowfish

#endif  // BLOWFISH_ENGINE_OBS_SERVER_H_
