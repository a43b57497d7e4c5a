#include "src/sampling/index_ops.h"

#include <cmath>
#include <optional>

#include "src/common/row_parallel.h"
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

/// The index when it applies to rows of `source` at all, else null.
ExpectationIndex* IndexFor(const SamplingEngine& engine, const CTable& source) {
  return engine.options().index_enabled && source.table_id() != 0
             ? engine.result_index()
             : nullptr;
}

StatusOr<ExpectationResult> Call(const SamplingEngine& engine,
                                 const RowCall& call) {
  if (call.expr == nullptr) return engine.Confidence(*call.condition);
  return engine.Expectation(*call.expr, *call.condition,
                            call.compute_probability);
}

/// True when `result` drops its row: the condition is unsatisfiable (or
/// its sampling collapsed), so the row is absent from every world.
bool Drops(const RowCall& call, const ExpectationResult& result) {
  if (call.expr == nullptr) return result.probability <= 0.0;
  return std::isnan(result.expectation) && result.probability == 0.0;
}

}  // namespace

RowTriage::RowTriage(SamplingEngine engine, const CTable& source,
                     size_t num_rows, size_t calls_per_row, CallOf call_of)
    : engine_(std::move(engine)),
      index_(IndexFor(engine_, source)),
      key_head_(index_ != nullptr
                    ? ExactResultKeyHead(engine_.pool(), engine_.options())
                    : std::string()),
      per_row_(calls_per_row),
      call_of_(std::move(call_of)),
      slots_(num_rows * calls_per_row),
      rows_(num_rows),
      limit_(0) {
  // On the calling thread, whatever the row count: a triaged row is a
  // key build and an index lookup, or a closed-form evaluation through
  // the plan cache, both behind one lock each, so a parallel region
  // adds its own cost and saves nothing.
  for (; limit_ < num_rows; ++limit_) {
    error_ = Advance(engine_, limit_, /*sample=*/false);
    if (!error_.ok()) break;
  }
}

Status RowTriage::Classify(const SamplingEngine& engine, Slot* slot) const {
  const RowCall& call = slot->call;
  PIP_ASSIGN_OR_RETURN(std::optional<ExpectationResult> exact,
                       engine.ClosedForm(call.expr, *call.condition,
                                         call.compute_probability));
  if (exact.has_value()) {
    slot->kind = Kind::kExact;
    slot->result = *exact;
    return Status::OK();
  }
  slot->kind = Kind::kSample;
  if (index_ == nullptr) return Status::OK();
  const char tag = call.expr == nullptr       ? 'C'
                   : call.compute_probability ? 'P'
                                              : 'E';
  slot->key = ExactResultKey(tag, key_head_,
                             call.expr != nullptr ? *call.expr : nullptr,
                             *call.condition, engine.pool());
  if (auto hit = index_->Lookup(slot->key)) {
    slot->kind = Kind::kHit;
    slot->result = ToExpectationResult(*hit);
    slot->key.clear();
  }
  return Status::OK();
}

Status RowTriage::Advance(const SamplingEngine& engine, size_t row,
                          bool sample) {
  RowState& state = rows_[row];
  while (state.answered < per_row_ && !state.dropped) {
    Slot& slot = slots_[row * per_row_ + state.answered];
    if (slot.kind == Kind::kPending) {
      slot.call = call_of_(row, state.answered);
      PIP_RETURN_IF_ERROR(Classify(engine, &slot));
    }
    if (slot.kind == Kind::kSample) {
      if (!sample) return Status::OK();
      PIP_ASSIGN_OR_RETURN(slot.result, Call(engine, slot.call));
      if (!slot.key.empty()) {
        index_->Insert(slot.key, ToIndexedValue(slot.result));
      }
    }
    state.dropped = Drops(slot.call, slot.result);
    ++state.answered;
  }
  return Status::OK();
}

bool RowTriage::Pending(size_t row) const {
  return rows_[row].answered < per_row_ && !rows_[row].dropped;
}

size_t RowTriage::sampled_rows() const {
  size_t n = 0;
  for (size_t row = 0; row < limit_; ++row) n += Pending(row) ? 1 : 0;
  return n;
}

size_t RowTriage::Count(Kind kind) const {
  size_t n = 0;
  for (const Slot& slot : slots_) n += slot.kind == kind ? 1 : 0;
  return n;
}

Status RowTriage::Run() {
  std::vector<size_t> todo;
  for (size_t row = 0; row < limit_; ++row) {
    if (Pending(row)) todo.push_back(row);
  }
  // Row-parallel over the sampled rows only: exact and hit rows are
  // already answered, so a statement with none opens no region.
  PIP_RETURN_IF_ERROR(ParallelRows(
      todo.size(), engine_.options().num_threads,
      [&](size_t i, const RowBatchContext& ctx) -> Status {
        // Long row bodies bail at the next chunk barrier once an earlier
        // row has failed (this row's slots are discarded either way).
        const SamplingEngine row_engine =
            engine_.WithCancelCheck([ctx] { return ctx.Cancelled(); });
        return Advance(row_engine, todo[i], /*sample=*/true);
      }));
  return error_;
}

}  // namespace pip
