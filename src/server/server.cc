#include "src/server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>

#include "src/server/wire.h"
#include "src/sql/session.h"

namespace pip {
namespace server {

namespace {

// One admission weight unit ~ this many estimated Monte Carlo draws, so
// a statement at or below a small point lookup costs exactly one unit
// and max_sampling keeps its old "concurrent small statements" reading.
constexpr size_t kDrawsPerWeightUnit = 1000;

/// Detects an abandoned connection while a statement runs, so the
/// session's cancel hook can stop the statement at its next chunk
/// barrier instead of sampling to completion for nobody (and holding
/// its admission weight the whole time).
///
/// The probe is polled from sampling worker threads, so it is all
/// atomics: a sticky `gone` flag plus a CAS-claimed rate limiter that
/// bounds the syscall cost to one poll+recv per ~5 ms across all
/// threads. poll(POLLIN) distinguishes "quiet socket" (alive, no
/// syscall beyond the poll) from "readable" — and a readable socket is
/// only a disconnect when MSG_PEEK sees EOF or a hard error; buffered
/// bytes mean a pipelined statement, not a departure.
class PeerLivenessProbe {
 public:
  explicit PeerLivenessProbe(int fd) : fd_(fd) {}

  bool PeerGone() {
    if (gone_.load(std::memory_order_relaxed)) return true;
    int64_t now = NowMicros();
    int64_t next = next_probe_us_.load(std::memory_order_relaxed);
    if (now < next) return false;
    if (!next_probe_us_.compare_exchange_strong(next, now + kIntervalUs,
                                                std::memory_order_relaxed)) {
      return false;  // Another worker claimed this probe window.
    }
    if (ProbeOnce()) gone_.store(true, std::memory_order_relaxed);
    return gone_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr int64_t kIntervalUs = 5000;

  static int64_t NowMicros() {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool ProbeOnce() const {
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    int r = ::poll(&pfd, 1, 0);
    if (r <= 0) return false;  // Quiet or transient failure: assume alive.
    char b;
    ssize_t n = ::recv(fd_, &b, 1, MSG_PEEK | MSG_DONTWAIT);
    if (n > 0) return false;  // Buffered pipelined bytes: alive.
    if (n == 0) return true;  // Orderly EOF: peer went away.
    return errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR;
  }

  const int fd_;
  std::atomic<bool> gone_{false};
  std::atomic<int64_t> next_probe_us_{0};
};

}  // namespace

Status Server::Start() {
  if (listen_fd_ >= 0) return Status::Internal("server already started");

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket failed: ") +
                            std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad listen address '" + options_.host +
                                   "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status = Status::Internal(std::string("bind failed: ") +
                                     std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 64) < 0) {
    Status status = Status::Internal(std::string("listen failed: ") +
                                     std::strerror(errno));
    ::close(fd);
    return status;
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    Status status = Status::Internal(std::string("getsockname failed: ") +
                                     std::strerror(errno));
    ::close(fd);
    return status;
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // Listener shut down (or unrecoverable accept error).
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    // Replies are single frames the client blocks on; Nagle's algorithm
    // would only hold them back.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (stopping_.load(std::memory_order_acquire)) {
        ::close(fd);
        break;
      }
      for (std::thread::id id : finished_threads_) {
        auto it = conn_threads_.find(id);
        finished.push_back(std::move(it->second));
        conn_threads_.erase(it);
      }
      finished_threads_.clear();
      live_fds_.insert(fd);
      // The thread cannot report itself finished before it is in the
      // map: that also takes conn_mu_.
      std::thread t([this, fd] { ServeConnection(fd); });
      std::thread::id id = t.get_id();
      conn_threads_.emplace(id, std::move(t));
    }
    // Finished threads have left ServeConnection; joining them waits at
    // most for their return.
    for (std::thread& t : finished) t.join();
  }
}

size_t Server::connection_threads() const {
  std::lock_guard<std::mutex> lock(conn_mu_);
  return conn_threads_.size();
}

void Server::ServeConnection(int fd) {
  // Versioned greeting: clients check the leading token before sending.
  if (WriteFrame(fd, std::string(kProtocolVersion) + " sql").ok()) {
    sql::Session session(
        db_, sql::SessionSettings{db_->default_options(), options_.envelope});
    // Disconnect cancellation: while a statement runs, the sampling
    // loops poll this probe at chunk barriers; an abandoned statement
    // stops there, and its RAII ticket releases the admission weight.
    PeerLivenessProbe probe(fd);
    session.set_external_cancel([&probe] { return probe.PeerGone(); });
    // Only statements with rows that will draw reach this hook, once
    // their symbolic plan has produced the rows that survive WHERE and
    // the triage (index_ops.h) has answered every closed-form call and
    // index hit. The weight is the sampled rows x per-row draws: an
    // exact count or a warm lookup weighs nothing and never queues, a
    // one-row cold lookup holds one unit or two, and a cold table sweep
    // holds proportionally more of the window. DDL/DML and symbolic
    // SELECTs stay ungated.
    uint64_t queue_us = 0;
    bool gate_closed = false;
    session.set_admission(
        [&](size_t draws) -> StatusOr<std::shared_ptr<void>> {
          size_t weight =
              (draws + kDrawsPerWeightUnit - 1) / kDrawsPerWeightUnit;
          // ADMISSION_TIMEOUT_MS = 0 queues without bound (the knob's
          // "disabled" convention); nonzero bounds the wait and sheds
          // with ERR OVERLOADED, keeping the connection — the client
          // backs off and retries.
          uint64_t admission_ms = session.envelope().admission_timeout_ms;
          auto admitted = admission_ms == 0
                              ? gate_.Acquire(weight)
                              : gate_.TryAcquireFor(weight, admission_ms);
          if (!admitted.ok()) {
            gate_closed = admitted.status().code() == StatusCode::kCancelled;
            return admitted.status();
          }
          queue_us = admitted.value().wait_us();
          return std::shared_ptr<void>(std::make_shared<AdmissionGate::Ticket>(
              std::move(admitted).value()));
        });
    std::string statement;
    while (!stopping_.load(std::memory_order_acquire)) {
      auto more = ReadFrame(fd, &statement);
      if (!more.ok() || !more.value()) break;
      queue_us = 0;
      sql::SqlResult result = session.Execute(statement);
      // Gate closed: the server is stopping; drop the connection.
      if (gate_closed) break;
      if (!WriteFrame(fd, EncodeResponse(result, queue_us)).ok()) break;
    }
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(conn_mu_);
  live_fds_.erase(fd);
  finished_threads_.push_back(std::this_thread::get_id());
}

void Server::Stop() {
  if (listen_fd_ < 0) return;
  // Close the gate before anything else: connection threads queued in
  // TryAcquireFor wake immediately with kCancelled instead of making
  // shutdown wait out their admission timeouts.
  gate_.Close();
  bool was_stopping = stopping_.exchange(true, std::memory_order_acq_rel);
  if (!was_stopping) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Kick live connections out of blocking reads; their threads then
    // fall through to cleanup on their own.
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  // No new threads can appear now (accept loop is dead), so the map is
  // stable enough to join without holding the lock.
  std::unordered_map<std::thread::id, std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    threads.swap(conn_threads_);
    finished_threads_.clear();
  }
  for (auto& entry : threads) entry.second.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

}  // namespace server
}  // namespace pip
