/// \file knobs.h
/// \brief Declarative registry of the session knobs.
///
/// One table maps knob names to parse/validate/set/get behavior on a
/// session's settings: its SamplingOptions and its statement envelope.
/// Every surface that tunes them goes through it:
/// the SQL `SET <knob> = <value>` statement, `SHOW KNOBS`, and the
/// pip-server `--set NAME=VALUE` startup flags — so a knob added here is
/// immediately available everywhere, with one validator.

#ifndef PIP_SQL_KNOBS_H_
#define PIP_SQL_KNOBS_H_

#include <functional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/sampling/expectation.h"

namespace pip {
namespace sql {

/// \brief The statement envelope: limits on how long a statement may
/// wait for admission and run. They decide whether a statement finishes,
/// never what it computes, so they sit beside SamplingOptions rather
/// than in it (and stay out of every index key).
struct StatementEnvelope {
  /// STATEMENT_TIMEOUT_MS: per-statement deadline, 0 = none. The
  /// session composes it into cancel_check as a steady-clock deadline
  /// read once at statement start and restarted on admission, so it is
  /// enforced at chunk barriers and surfaces Status::Timeout (ERR
  /// TIMEOUT over the wire).
  uint64_t statement_timeout_ms = 0;
  /// ADMISSION_TIMEOUT_MS: longest wait in the server's admission gate
  /// before the statement is shed with Status::Overloaded (ERR
  /// OVERLOADED, retryable); 0 queues without bound. Server-side only.
  uint64_t admission_timeout_ms = 0;
};

/// \brief Everything a knob sets: a session's sampling options and its
/// statement envelope.
struct SessionSettings {
  SamplingOptions sampling;
  StatementEnvelope envelope;
};

/// \brief One tunable knob.
struct KnobDef {
  std::string name;  ///< Canonical upper-case name, e.g. "NUM_THREADS".
  std::string help;  ///< One-line description for SHOW KNOBS.
  /// Current value rendered for SHOW KNOBS / diagnostics.
  std::function<std::string(const SessionSettings&)> get;
  /// Validates and applies `value`; error Status on rejection.
  std::function<Status(SessionSettings*, double value)> set;
};

/// The registry, sorted by name.
const std::vector<KnobDef>& KnobRegistry();

/// The definition of `name` (case-insensitive); NotFound for unknown
/// knobs.
StatusOr<const KnobDef*> FindKnob(const std::string& name);

/// Applies a "NAME=VALUE" spec (the server startup-flag form).
Status SetKnobFromSpec(SessionSettings* settings, const std::string& spec);

}  // namespace sql
}  // namespace pip

#endif  // PIP_SQL_KNOBS_H_
