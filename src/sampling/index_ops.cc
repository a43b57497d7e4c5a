#include "src/sampling/index_ops.h"

#include "src/sampling/shape_key.h"

namespace pip {

namespace {

IndexedValue ToIndexedValue(const ExpectationResult& result) {
  IndexedValue value;
  value.expectation = result.expectation;
  value.probability = result.probability;
  value.samples_used = result.samples_used;
  value.attempts = result.attempts;
  value.exact = result.exact;
  return value;
}

ExpectationResult ToExpectationResult(const IndexedValue& value) {
  ExpectationResult result;
  result.expectation = value.expectation;
  result.probability = value.probability;
  result.samples_used = static_cast<size_t>(value.samples_used);
  result.attempts = static_cast<size_t>(value.attempts);
  result.exact = value.exact;
  return result;
}

/// True when the index applies to rows of `source` at all.
bool IndexApplies(const SamplingEngine& engine, const CTable& source) {
  return engine.result_index() != nullptr && engine.options().index_enabled &&
         source.table_id() != 0;
}

}  // namespace

StatusOr<ExpectationResult> IndexedExpectation(const SamplingEngine& engine,
                                               const CTable& source,
                                               const ExprPtr& expr,
                                               const Condition& condition,
                                               bool compute_probability) {
  // Deterministic calls short-circuit inside the engine faster than a
  // key could be built; don't pollute the index with them.
  if (!IndexApplies(engine, source) ||
      (expr->IsDeterministic() && condition.IsDeterministic())) {
    return engine.Expectation(expr, condition, compute_probability);
  }
  ExpectationIndex* index = engine.result_index();
  std::string key = ExactResultKey(compute_probability ? 'P' : 'E', expr,
                                   {&condition}, engine.pool(),
                                   engine.options());
  if (auto hit = index->Lookup(key)) {
    return ToExpectationResult(*hit);
  }
  PIP_ASSIGN_OR_RETURN(ExpectationResult result,
                       engine.Expectation(expr, condition,
                                          compute_probability));
  index->Insert(key, ToIndexedValue(result));
  return result;
}

StatusOr<ExpectationResult> IndexedConfidence(const SamplingEngine& engine,
                                              const CTable& source,
                                              const Condition& condition) {
  if (!IndexApplies(engine, source) || condition.IsDeterministic()) {
    return engine.Confidence(condition);
  }
  ExpectationIndex* index = engine.result_index();
  std::string key = ExactResultKey('C', nullptr, {&condition}, engine.pool(),
                                   engine.options());
  if (auto hit = index->Lookup(key)) {
    return ToExpectationResult(*hit);
  }
  PIP_ASSIGN_OR_RETURN(ExpectationResult result, engine.Confidence(condition));
  index->Insert(key, ToIndexedValue(result));
  return result;
}

StatusOr<double> IndexedJointConfidence(
    const SamplingEngine& engine, const CTable& source,
    const std::vector<Condition>& disjuncts) {
  if (!IndexApplies(engine, source)) {
    return engine.JointConfidence(disjuncts);
  }
  ExpectationIndex* index = engine.result_index();
  std::vector<const Condition*> conditions;
  conditions.reserve(disjuncts.size());
  for (const Condition& c : disjuncts) conditions.push_back(&c);
  std::string key = ExactResultKey('J', nullptr, conditions, engine.pool(),
                                   engine.options());
  if (auto hit = index->Lookup(key)) {
    return hit->probability;
  }
  PIP_ASSIGN_OR_RETURN(double probability, engine.JointConfidence(disjuncts));
  IndexedValue value;
  value.expectation = probability;
  value.probability = probability;
  index->Insert(key, std::move(value));
  return probability;
}

}  // namespace pip
