/// \file server.h
/// \brief Multi-session TCP front end over one shared Database.
///
/// The paper hosts PIP inside PostgreSQL, which brings its own server;
/// this module is the in-memory engine's equivalent front door. One
/// Server owns a listening socket and gives every accepted connection a
/// dedicated thread running a private sql::Session — so SET knobs are
/// connection-local — while the Database (catalogue, variable pool, plan
/// cache) and the sampling thread pool are shared by all of them.
///
/// Concurrency: catalogue reads take shared_ptr snapshots and writes go
/// through the Database's shared_mutex, so DDL/DML/SELECT may interleave
/// freely across connections. Sampling statements pass through an
/// AdmissionGate bounding how many run at once; queue wait is reported
/// per-response (see wire.h).
///
/// Lifecycle: Start() binds (port 0 picks an ephemeral port, readable
/// via port()) and returns once the accept loop is running. The accept
/// loop joins the threads of closed connections, so a long-running server
/// holds a thread (and its stack) per live connection, not per connection
/// ever accepted. Stop() shuts down the listener and every live
/// connection and joins all threads.
/// The destructor calls Stop().

#ifndef PIP_SERVER_SERVER_H_
#define PIP_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/engine/database.h"
#include "src/server/admission.h"
#include "src/sql/knobs.h"

namespace pip {
namespace server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;        ///< 0 = kernel-assigned ephemeral port.
  /// Admission-gate capacity in weight units (one unit ~ 1000 estimated
  /// Monte Carlo draws; a small statement costs one unit, a table sweep
  /// proportionally more); 0 = unlimited.
  size_t max_sampling = 0;
  /// Statement envelope every connection's session starts from (the
  /// STATEMENT_TIMEOUT_MS and ADMISSION_TIMEOUT_MS defaults); SET
  /// changes it per connection.
  sql::StatementEnvelope envelope;
};

/// \brief Accepts connections and serves the PIP1 statement protocol.
class Server {
 public:
  Server(Database* db, ServerOptions options)
      : db_(db), options_(std::move(options)), gate_(options_.max_sampling) {}
  ~Server() { Stop(); }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the accept loop. Invalid to call twice.
  Status Start();

  /// The bound port (after Start); useful with ephemeral binding.
  uint16_t port() const { return port_; }

  /// Shuts down the listener and all live connections, then joins every
  /// thread. Idempotent.
  void Stop();

  AdmissionGate::Stats admission_stats() const { return gate_.stats(); }
  uint64_t connections_accepted() const { return connections_accepted_; }
  /// Connection threads not yet joined: the live connections plus any
  /// that finished since the last accept (which joins them).
  size_t connection_threads() const;

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  Database* db_;
  ServerOptions options_;
  AdmissionGate gate_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> connections_accepted_{0};
  std::thread accept_thread_;

  mutable std::mutex conn_mu_;
  std::unordered_map<std::thread::id, std::thread> conn_threads_;
  /// Threads whose connection has closed, for the accept loop to join.
  std::vector<std::thread::id> finished_threads_;
  std::unordered_set<int> live_fds_;
};

}  // namespace server
}  // namespace pip

#endif  // PIP_SERVER_SERVER_H_
