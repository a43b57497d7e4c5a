#include "src/sampling/shape_key.h"

#include <cstdint>
#include <cstring>
#include <map>

#include "src/sampling/expectation.h"
#include "src/types/value.h"

namespace pip {

namespace {

/// Lowercase-hex of a 64-bit pattern; fixed width so keys never alias
/// across field boundaries.
void AppendHex64(uint64_t bits, std::string* out) {
  static const char kDigits[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out->push_back(kDigits[(bits >> shift) & 0xF]);
  }
}

void AppendDoubleBits(double d, std::string* out) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d), "double must be 64-bit");
  std::memcpy(&bits, &d, sizeof(bits));
  AppendHex64(bits, out);
}

/// Serializer state shared by the plan cache's shape keys and the
/// expectation index's result keys. `exact` toggles the two fidelities:
///   * shape mode abstracts constants to their type and renumbers var
///     ids by first appearance (pinned to distribution class);
///   * exact mode emits constant bit patterns / length-prefixed strings
///     and verbatim var ids (a var id fixes its distribution,
///     parameters, and RNG stream within one pool+seed).
struct KeyBuilder {
  const VariablePool* pool = nullptr;
  bool exact = false;
  std::map<uint64_t, size_t> id_canon;
  std::vector<VarRef> canon_vars;
  std::map<VarRef, size_t> slot_of;
  std::string out;

  void AppendVar(const VarRef& v) {
    if (exact) {
      out += 'v';
      out += std::to_string(v.var_id);
      out += '.';
      out += std::to_string(v.component);
      return;
    }
    auto [it, inserted] = id_canon.emplace(v.var_id, id_canon.size());
    if (slot_of.emplace(v, canon_vars.size()).second) {
      canon_vars.push_back(v);
    }
    out += 'v';
    out += std::to_string(it->second);
    out += '.';
    out += std::to_string(v.component);
    out += ':';
    // The class name pins capabilities (CDF/PDF/finite domain) and the
    // component count, so skeleton decisions transfer between rows.
    auto info = pool->Info(v.var_id);
    out += info.ok() ? info.value()->class_name : "?";
  }

  void AppendConst(const Value& value) {
    out += 'c';
    out += std::to_string(static_cast<int>(value.type()));
    if (!exact) return;
    out += '=';
    switch (value.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kBool:
        out += value.bool_value() ? '1' : '0';
        break;
      case ValueType::kInt:
        AppendHex64(static_cast<uint64_t>(value.int_value()), &out);
        break;
      case ValueType::kDouble:
        AppendDoubleBits(value.double_value(), &out);
        break;
      case ValueType::kString:
        // Length prefix keeps adjacent fields from aliasing.
        out += std::to_string(value.string_value().size());
        out += ':';
        out += value.string_value();
        break;
    }
  }

  void AppendExpr(const Expr& e) {
    switch (e.op()) {
      case ExprOp::kConst:
        AppendConst(e.value());
        return;
      case ExprOp::kVar:
        AppendVar(e.var());
        return;
      case ExprOp::kFunc:
        out += 'f';
        out += std::to_string(static_cast<int>(e.func()));
        break;
      case ExprOp::kAdd:
        out += '+';
        break;
      case ExprOp::kSub:
        out += '-';
        break;
      case ExprOp::kMul:
        out += '*';
        break;
      case ExprOp::kDiv:
        out += '/';
        break;
      case ExprOp::kNeg:
        out += '~';
        break;
    }
    out += '(';
    for (const auto& child : e.children()) AppendExpr(*child);
    out += ')';
  }

  void AppendCondition(const Condition& condition) {
    if (condition.IsKnownFalse()) {
      out += "|A!";
      return;
    }
    for (const auto& atom : condition.atoms()) {
      out += "|A";
      out += std::to_string(static_cast<int>(atom.op()));
      out += ':';
      AppendExpr(*atom.lhs());
      out += '?';
      AppendExpr(*atom.rhs());
    }
  }
};

}  // namespace

uint32_t PlanShapeFlagBits(const SamplingOptions& options) {
  return (options.use_exact_cdf ? 1u : 0u) |
         (options.use_cdf_sampling ? 2u : 0u) |
         (options.use_independence ? 4u : 0u) |
         (options.use_metropolis ? 8u : 0u) |
         (options.use_batch_generation ? 16u : 0u) |
         (options.use_numeric_integration ? 32u : 0u);
}

std::string PlanShapeKey(const Condition& condition, const VarSet& target_vars,
                         const VariablePool& pool, uint32_t flag_bits,
                         std::vector<VarRef>* canon_vars) {
  KeyBuilder b;
  b.pool = &pool;
  // Registry generation first: re-registering a plugin under an existing
  // name changes capabilities behind an unchanged class name, so skeletons
  // built before the swap must not be served after it.
  b.out += 'G';
  b.out += std::to_string(pool.registry().generation());
  b.out += "|F";
  b.out += std::to_string(flag_bits);
  b.AppendCondition(condition);
  b.out += "|T:";
  for (const VarRef& v : target_vars) b.AppendVar(v);
  canon_vars->clear();
  *canon_vars = std::move(b.canon_vars);
  return std::move(b.out);
}

std::string SamplingOptionsFingerprint(const SamplingOptions& options) {
  std::string out;
  out.reserve(160);
  AppendDoubleBits(options.epsilon, &out);
  AppendDoubleBits(options.delta, &out);
  out += '|';
  out += std::to_string(options.fixed_samples);
  out += ',';
  out += std::to_string(options.min_samples);
  out += ',';
  out += std::to_string(options.max_samples);
  out += ',';
  out += std::to_string(options.max_total_attempts);
  out += ',';
  out += std::to_string(options.sample_offset);
  out += ',';
  out += std::to_string(options.chunk_samples);
  out += "|s";
  // Every strategy toggle, even ones contracted bit-identical today
  // (batch generation): conservative inclusion means a future kernel
  // change can never surface as a silently wrong index hit.
  out += std::to_string(PlanShapeFlagBits(options));
  out += '|';
  AppendDoubleBits(options.metropolis_threshold, &out);
  out += std::to_string(options.metropolis_check_after);
  return out;
}

std::string ExactResultKeyHead(const VariablePool& pool,
                               const SamplingOptions& options) {
  std::string head = "G";
  head += std::to_string(pool.registry().generation());
  head += "|S";
  AppendHex64(pool.seed(), &head);
  head += "|O";
  head += SamplingOptionsFingerprint(options);
  head += "|E:";
  return head;
}

std::string ExactResultKey(char op_tag, const std::string& head,
                           const ExprPtr& expr, const Condition& condition,
                           const VariablePool& pool) {
  KeyBuilder b;
  b.pool = &pool;
  b.exact = true;
  b.out.reserve(head.size() + 128);
  b.out += op_tag;
  b.out += head;
  if (expr != nullptr) b.AppendExpr(*expr);
  b.out += "|C";
  b.AppendCondition(condition);
  return std::move(b.out);
}

}  // namespace pip
