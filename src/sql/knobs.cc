#include "src/sql/knobs.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace pip {
namespace sql {

namespace {

std::string ToUpperCopy(std::string s) {
  for (char& c : s) c = static_cast<char>(std::toupper(c));
  return s;
}

std::string RenderCount(size_t v) { return std::to_string(v); }

std::string RenderDouble(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

StatusOr<size_t> AsCount(const std::string& name, double value) {
  if (value < 0 || value != std::floor(value)) {
    return Status::InvalidArgument("SET " + name +
                                   " expects a non-negative integer");
  }
  return static_cast<size_t>(value);
}

// The registry itself. Sorted by name; SHOW KNOBS renders it in this
// order.
const std::vector<KnobDef>& Registry() {
  static const std::vector<KnobDef>* knobs = new std::vector<KnobDef>{
      {"ADMISSION_TIMEOUT_MS",
       "max wait in the server admission gate before ERR OVERLOADED "
       "(0 = queue without bound)",
       [](const SessionSettings& s) {
         return RenderCount(
             static_cast<size_t>(s.envelope.admission_timeout_ms));
       },
       [](SessionSettings* s, double v) {
         PIP_ASSIGN_OR_RETURN(size_t ms, AsCount("ADMISSION_TIMEOUT_MS", v));
         s->envelope.admission_timeout_ms = ms;
         return Status::OK();
       }},
      {"CHUNK_SAMPLES",
       "samples per shard chunk (determinism schedule; must be >= 1)",
       [](const SessionSettings& s) {
         return RenderCount(s.sampling.chunk_samples);
       },
       [](SessionSettings* s, double v) {
         PIP_ASSIGN_OR_RETURN(size_t n, AsCount("CHUNK_SAMPLES", v));
         if (n == 0) {
           return Status::InvalidArgument(
               "SET CHUNK_SAMPLES expects a positive integer");
         }
         s->sampling.chunk_samples = n;
         return Status::OK();
       }},
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
      {"FIXED_SAMPLES",
       "exact sample count (0 = adaptive epsilon/delta stopping)",
       [](const SessionSettings& s) {
         return RenderCount(s.sampling.fixed_samples);
       },
       [](SessionSettings* s, double v) {
         PIP_ASSIGN_OR_RETURN(s->sampling.fixed_samples,
                              AsCount("FIXED_SAMPLES", v));
         return Status::OK();
       }},
      {"INDEX_ENABLED",
       "serve repeated per-row queries from the expectation index (0/1)",
       [](const SessionSettings& s) {
         return RenderCount(s.sampling.index_enabled ? 1 : 0);
       },
       [](SessionSettings* s, double v) {
         if (v != 0.0 && v != 1.0) {
           return Status::InvalidArgument("SET INDEX_ENABLED expects 0 or 1");
         }
         s->sampling.index_enabled = (v == 1.0);
         return Status::OK();
       }},
      {"INDEX_MEMORY_BUDGET",
       "expectation-index LRU byte budget (0 = unlimited)",
       [](const SessionSettings& s) {
         return RenderCount(s.sampling.index_memory_budget);
       },
       [](SessionSettings* s, double v) {
         PIP_ASSIGN_OR_RETURN(s->sampling.index_memory_budget,
                              AsCount("INDEX_MEMORY_BUDGET", v));
         return Status::OK();
       }},
      {"MAX_SAMPLES", "adaptive stopping sample ceiling",
       [](const SessionSettings& s) {
         return RenderCount(s.sampling.max_samples);
       },
       [](SessionSettings* s, double v) {
         PIP_ASSIGN_OR_RETURN(s->sampling.max_samples,
                              AsCount("MAX_SAMPLES", v));
         return Status::OK();
       }},
      {"MIN_SAMPLES", "adaptive stopping sample floor",
       [](const SessionSettings& s) {
         return RenderCount(s.sampling.min_samples);
       },
       [](SessionSettings* s, double v) {
         PIP_ASSIGN_OR_RETURN(s->sampling.min_samples,
                              AsCount("MIN_SAMPLES", v));
         return Status::OK();
       }},
      {"NUM_THREADS", "sampling worker threads (0 = hardware concurrency)",
       [](const SessionSettings& s) {
         return RenderCount(s.sampling.num_threads);
       },
       [](SessionSettings* s, double v) {
         PIP_ASSIGN_OR_RETURN(s->sampling.num_threads,
                              AsCount("NUM_THREADS", v));
         return Status::OK();
       }},
      {"SAMPLE_OFFSET",
       "offset into the deterministic sample-index space (fresh runs)",
       [](const SessionSettings& s) {
         return RenderCount(static_cast<size_t>(s.sampling.sample_offset));
       },
       [](SessionSettings* s, double v) {
         PIP_ASSIGN_OR_RETURN(size_t offset, AsCount("SAMPLE_OFFSET", v));
         s->sampling.sample_offset = offset;
         return Status::OK();
       }},
      {"STATEMENT_TIMEOUT_MS",
       "per-statement deadline enforced at chunk barriers, ERR TIMEOUT "
       "(0 = no deadline)",
       [](const SessionSettings& s) {
         return RenderCount(
             static_cast<size_t>(s.envelope.statement_timeout_ms));
       },
       [](SessionSettings* s, double v) {
         PIP_ASSIGN_OR_RETURN(size_t ms, AsCount("STATEMENT_TIMEOUT_MS", v));
         s->envelope.statement_timeout_ms = ms;
         return Status::OK();
       }},
  };
  return *knobs;
}

}  // namespace

const std::vector<KnobDef>& KnobRegistry() { return Registry(); }

StatusOr<const KnobDef*> FindKnob(const std::string& name) {
  std::string upper = ToUpperCopy(name);
  for (const KnobDef& knob : Registry()) {
    if (knob.name == upper) return &knob;
  }
  return Status::NotFound("unknown knob '" + name + "'");
}

Status SetKnob(SessionSettings* settings, const std::string& name,
               double value) {
  PIP_ASSIGN_OR_RETURN(const KnobDef* knob, FindKnob(name));
  return knob->set(settings, value);
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
  return SetKnob(settings, name, value);
}

}  // namespace sql
}  // namespace pip
