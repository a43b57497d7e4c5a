#include "src/sql/knobs.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace pip {
namespace sql {

namespace {

std::string ToUpper(std::string s) {
  for (char& c : s) c = static_cast<char>(std::toupper(c));
  return s;
}

std::string RenderDouble(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// A knob holding a count: a non-negative integer, or a positive one when
/// `positive`, stored in the settings field that `field` selects.
template <typename Field>
KnobDef Count(std::string name, std::string help, Field field,
              bool positive = false) {
  auto set = [name, field, positive](SessionSettings* s, double v) {
    if (v < 0 || v != std::floor(v)) {
      return Status::InvalidArgument("SET " + name +
                                     " expects a non-negative integer");
    }
    if (positive && v == 0) {
      return Status::InvalidArgument("SET " + name +
                                     " expects a positive integer");
    }
    field(*s) = static_cast<size_t>(v);
    return Status::OK();
  };
  return {std::move(name), std::move(help),
          [field](const SessionSettings& s) { return std::to_string(field(s)); },
          std::move(set)};
}

}  // namespace

// Sorted by name; SHOW KNOBS renders it in this order.
const std::vector<KnobDef>& KnobRegistry() {
  static const std::vector<KnobDef>* knobs = new std::vector<KnobDef>{
      Count("ADMISSION_TIMEOUT_MS",
            "max wait in the server admission gate before ERR OVERLOADED "
            "(0 = queue without bound)",
            [](auto& s) -> auto& { return s.envelope.admission_timeout_ms; }),
      Count("CHUNK_SAMPLES",
            "samples per shard chunk (determinism schedule; must be >= 1)",
            [](auto& s) -> auto& { return s.sampling.chunk_samples; },
            /*positive=*/true),
      {"DELTA", "relative precision target for adaptive stopping",
       [](const SessionSettings& s) { return RenderDouble(s.sampling.delta); },
       [](SessionSettings* s, double v) {
         if (!(v > 0.0)) {
           return Status::InvalidArgument("SET DELTA expects a positive value");
         }
         s->sampling.delta = v;
         return Status::OK();
       }},
      {"EPSILON", "confidence parameter of the adaptive stopping rule",
       [](const SessionSettings& s) {
         return RenderDouble(s.sampling.epsilon);
       },
       [](SessionSettings* s, double v) {
         // (1 - epsilon) feeds ErfInv; outside (0, 1) the stopping rule
         // degenerates (negative or NaN z).
         if (!(v > 0.0 && v < 1.0)) {
           return Status::InvalidArgument(
               "SET EPSILON expects a value in (0, 1)");
         }
         s->sampling.epsilon = v;
         return Status::OK();
       }},
      Count("FIXED_SAMPLES",
            "exact sample count (0 = adaptive epsilon/delta stopping)",
            [](auto& s) -> auto& { return s.sampling.fixed_samples; }),
      {"INDEX_ENABLED",
       "serve repeated per-row queries from the expectation index (0/1)",
       [](const SessionSettings& s) {
         return std::string(s.sampling.index_enabled ? "1" : "0");
       },
       [](SessionSettings* s, double v) {
         if (v != 0.0 && v != 1.0) {
           return Status::InvalidArgument("SET INDEX_ENABLED expects 0 or 1");
         }
         s->sampling.index_enabled = (v == 1.0);
         return Status::OK();
       }},
      Count("INDEX_MEMORY_BUDGET",
            "expectation-index LRU byte budget (0 = unlimited)",
            [](auto& s) -> auto& { return s.sampling.index_memory_budget; }),
      Count("MAX_SAMPLES", "adaptive stopping sample ceiling",
            [](auto& s) -> auto& { return s.sampling.max_samples; }),
      Count("MIN_SAMPLES", "adaptive stopping sample floor",
            [](auto& s) -> auto& { return s.sampling.min_samples; }),
      Count("NUM_THREADS",
            "sampling worker threads (0 = hardware concurrency)",
            [](auto& s) -> auto& { return s.sampling.num_threads; }),
      Count("SAMPLE_OFFSET",
            "offset into the deterministic sample-index space (fresh runs)",
            [](auto& s) -> auto& { return s.sampling.sample_offset; }),
      Count("STATEMENT_TIMEOUT_MS",
            "per-statement deadline enforced at chunk barriers, ERR TIMEOUT "
            "(0 = no deadline)",
            [](auto& s) -> auto& { return s.envelope.statement_timeout_ms; }),
  };
  return *knobs;
}

StatusOr<const KnobDef*> FindKnob(const std::string& name) {
  std::string upper = ToUpper(name);
  for (const KnobDef& knob : KnobRegistry()) {
    if (knob.name == upper) return &knob;
  }
  return Status::NotFound("unknown knob '" + name + "'");
}

Status SetKnobFromSpec(SessionSettings* settings, const std::string& spec) {
  size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
    return Status::InvalidArgument("knob spec '" + spec +
                                   "' is not NAME=VALUE");
  }
  const std::string name = spec.substr(0, eq);
  const std::string text = spec.substr(eq + 1);
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument("knob value '" + text +
                                   "' is not a number");
  }
  PIP_ASSIGN_OR_RETURN(const KnobDef* knob, FindKnob(name));
  return knob->set(settings, value);
}

}  // namespace sql
}  // namespace pip
