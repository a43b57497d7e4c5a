/// \file admission.h
/// \brief Admission control for sampling statements.
///
/// Monte Carlo statements (anything invoking a probability-removing
/// function) each fan out across the shared thread pool; letting every
/// connection run one simultaneously just makes them time-slice each
/// other's pool shares and blows up tail latency. The gate bounds the
/// sampling *volume* in flight, not the statement count: each statement
/// acquires a weight proportional to its draw count (rows x samples), so
/// ten tiny lookups can share the window one giant sweep would fill.
///
/// The server acquires through sql::Session::set_admission, which the
/// session calls at most once per SELECT, after its symbolic plan ran
/// and its rows were triaged (src/sampling/index_ops.h). Only rows that
/// will draw weigh: rows that survive WHERE and are neither answered in
/// closed form (an exact CDF, which is never indexed) nor hit in the
/// expectation index. So an exact expected_count or a warm lookup never
/// acquires, a cold one-row lookup on a large table weighs one row, a
/// half-warm statement weighs its cold rows, and a cold table sweep
/// weighs every row. Quadrature rows draw nothing but stay indexed, and
/// weigh as sampled rows when cold. Symbolic SELECTs, DDL and DML never
/// acquire. Excess statements queue and report their
/// queue wait in the wire response, so clients can see admission delay
/// separately from execution time; STATEMENT_TIMEOUT_MS starts counting
/// only once a statement is admitted.
///
/// Waiting is bounded: TryAcquireFor sheds the statement with
/// Status::Overloaded (ERR OVERLOADED on the wire — retryable, unlike
/// INTERNAL) once it has queued longer than the caller's admission
/// timeout. Close() fails every pending and future acquire with
/// Status::Cancelled so shutdown never waits behind queued statements.
///
/// C++17 has no std::counting_semaphore, so this is the classic
/// mutex + condvar counting semaphore, plus wait-time measurement and
/// occupancy stats.

#ifndef PIP_SERVER_ADMISSION_H_
#define PIP_SERVER_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "src/common/status.h"

namespace pip {
namespace server {

/// \brief Bounds the number of concurrently executing sampling
/// statements.
class AdmissionGate {
 public:
  /// \brief Holds one admission slot; releases it on destruction.
  ///
  /// Movable so Acquire can return it by value; moved-from tickets
  /// release nothing.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept
        : gate_(other.gate_), wait_us_(other.wait_us_),
          weight_(other.weight_) {
      other.gate_ = nullptr;
    }
    Ticket& operator=(Ticket&& other) noexcept {
      if (this != &other) {
        Release();
        gate_ = other.gate_;
        wait_us_ = other.wait_us_;
        weight_ = other.weight_;
        other.gate_ = nullptr;
      }
      return *this;
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket() { Release(); }

    /// Microseconds this statement queued before admission.
    uint64_t wait_us() const { return wait_us_; }
    /// Weight units this ticket holds (post-clamp).
    size_t weight() const { return gate_ != nullptr ? weight_ : 0; }

   private:
    friend class AdmissionGate;
    Ticket(AdmissionGate* gate, uint64_t wait_us, size_t weight)
        : gate_(gate), wait_us_(wait_us), weight_(weight) {}
    void Release() {
      if (gate_ != nullptr) gate_->Release(weight_);
      gate_ = nullptr;
    }

    AdmissionGate* gate_ = nullptr;
    uint64_t wait_us_ = 0;
    size_t weight_ = 0;
  };

  struct Stats {
    uint64_t admitted = 0;         ///< Total tickets granted.
    uint64_t queued = 0;           ///< Tickets that had to wait.
    uint64_t total_wait_us = 0;    ///< Sum of all queue waits.
    uint64_t admitted_weight = 0;  ///< Total weight units granted.
    uint64_t shed = 0;             ///< Acquires refused as Overloaded.
    uint64_t shed_weight = 0;      ///< Weight units those would have held.
    size_t in_flight = 0;          ///< Currently held tickets.
    size_t in_flight_weight = 0;   ///< Weight units currently held.
    size_t waiting = 0;            ///< Acquires currently queued.
  };

  /// `capacity` = max weight units admitted concurrently (with the
  /// default weight of 1 per Acquire this is exactly the old
  /// max-statements bound); 0 = unlimited (the gate degenerates to a
  /// wait-free counter).
  explicit AdmissionGate(size_t capacity) : capacity_(capacity) {}

  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  /// Blocks until `weight` units are free, then returns the held
  /// ticket. Weights above the capacity are clamped to it, so an
  /// over-sized statement still runs (alone) instead of deadlocking.
  /// Fails with Status::Cancelled only when the gate has been closed.
  StatusOr<Ticket> Acquire(size_t weight = 1);

  /// Like Acquire, but waits at most `timeout_ms` for capacity. On
  /// timeout the acquire is shed with Status::Overloaded carrying
  /// occupancy diagnostics (in-flight weight, queue depth) — the
  /// retryable signal, distinct from INTERNAL. timeout_ms of 0 sheds
  /// immediately when the gate is saturated.
  StatusOr<Ticket> TryAcquireFor(size_t weight, uint64_t timeout_ms);

  /// Shuts the gate: every pending and future acquire fails with
  /// Status::Cancelled. Held tickets still release normally. Called
  /// first in Server::Stop so shutdown never queues behind admitted
  /// work. Irreversible.
  void Close();

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  size_t capacity() const { return capacity_; }

 private:
  StatusOr<Ticket> AcquireInternal(size_t weight, bool bounded,
                                   uint64_t timeout_ms);
  void Release(size_t weight);

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
  Stats stats_;
};

}  // namespace server
}  // namespace pip

#endif  // PIP_SERVER_ADMISSION_H_
