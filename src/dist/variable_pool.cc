#include "src/dist/variable_pool.h"

#include "src/common/failpoints.h"

namespace pip {

VariablePool::~VariablePool() {
  for (auto& slot : blocks_) {
    delete[] slot.load(std::memory_order_relaxed);
  }
}

StatusOr<VarRef> VariablePool::Create(const std::string& class_name,
                                      std::vector<double> params) {
  PIP_ASSIGN_OR_RETURN(const Distribution* dist,
                       registry_->Lookup(class_name));
  PIP_RETURN_IF_ERROR(dist->ValidateParams(params));
  size_t components = dist->NumComponents(params);
  if (components < 1 || components > (1u << 16)) {
    return Status::InvalidArgument(
        class_name + ": component count " + std::to_string(components) +
        " outside the VarRef subscript range");
  }
  VariableInfo info;
  info.class_name = class_name;
  info.dist = dist;
  info.params = std::move(params);
  info.num_components = static_cast<uint32_t>(components);
  std::lock_guard<std::mutex> lock(create_mu_);
  size_t idx = num_vars_.load(std::memory_order_relaxed);
  if (idx >= kMaxBlocks * kBlockSize) {
    return Status::OutOfRange("variable pool exhausted (" +
                              std::to_string(idx) + " variables)");
  }
  std::atomic<VariableInfo*>& slot = blocks_[idx >> kBlockBits];
  VariableInfo* block = slot.load(std::memory_order_relaxed);
  if (block == nullptr) {
    block = new VariableInfo[kBlockSize];
    slot.store(block, std::memory_order_release);
  }
  block[idx & (kBlockSize - 1)] = std::move(info);
  // Publish: readers that see the new count also see the block pointer
  // and the fully constructed entry.
  num_vars_.store(idx + 1, std::memory_order_release);
  return VarRef{static_cast<uint64_t>(idx + 1), 0};
}

StatusOr<const VariableInfo*> VariablePool::Info(uint64_t var_id) const {
  const VariableInfo* info = InfoOrNull(var_id);
  if (info == nullptr) {
    return Status::NotFound("no variable with id " + std::to_string(var_id));
  }
  return info;
}

StatusOr<const VariableInfo*> VariablePool::CheckedInfo(VarRef v) const {
  PIP_ASSIGN_OR_RETURN(const VariableInfo* info, Info(v.var_id));
  if (v.component >= info->num_components) {
    return Status::OutOfRange(
        "variable X" + std::to_string(v.var_id) + " ('" + info->class_name +
        "') has no component " + std::to_string(v.component));
  }
  return info;
}

StatusOr<VarRef> VariablePool::Component(VarRef base,
                                         uint32_t component) const {
  VarRef v{base.var_id, component};
  PIP_RETURN_IF_ERROR(CheckedInfo(v).status());
  return v;
}

bool VariablePool::HasPdf(VarRef v) const {
  const VariableInfo* info = InfoOrNull(v.var_id);
  return info != nullptr && info->dist->HasPdf();
}

bool VariablePool::HasCdf(VarRef v) const {
  const VariableInfo* info = InfoOrNull(v.var_id);
  return info != nullptr && info->dist->HasCdf();
}

bool VariablePool::HasInverseCdf(VarRef v) const {
  const VariableInfo* info = InfoOrNull(v.var_id);
  return info != nullptr && info->dist->HasInverseCdf();
}

bool VariablePool::IsFiniteDiscrete(uint64_t var_id) const {
  const VariableInfo* info = InfoOrNull(var_id);
  return info != nullptr && info->num_components == 1 &&
         info->dist->domain() == DomainKind::kDiscrete &&
         info->dist->HasFiniteDomain();
}

StatusOr<double> VariablePool::Pdf(VarRef v, double x) const {
  PIP_ASSIGN_OR_RETURN(const VariableInfo* info, CheckedInfo(v));
  return info->dist->Pdf(info->params, v.component, x);
}

StatusOr<double> VariablePool::Cdf(VarRef v, double x) const {
  PIP_ASSIGN_OR_RETURN(const VariableInfo* info, CheckedInfo(v));
  return info->dist->Cdf(info->params, v.component, x);
}

StatusOr<double> VariablePool::InverseCdf(VarRef v, double p) const {
  PIP_ASSIGN_OR_RETURN(const VariableInfo* info, CheckedInfo(v));
  return info->dist->InverseCdf(info->params, v.component, p);
}

StatusOr<double> VariablePool::Mean(VarRef v) const {
  PIP_ASSIGN_OR_RETURN(const VariableInfo* info, CheckedInfo(v));
  return info->dist->Mean(info->params, v.component);
}

StatusOr<double> VariablePool::Variance(VarRef v) const {
  PIP_ASSIGN_OR_RETURN(const VariableInfo* info, CheckedInfo(v));
  return info->dist->Variance(info->params, v.component);
}

Interval VariablePool::Support(VarRef v) const {
  const VariableInfo* info = InfoOrNull(v.var_id);
  if (info == nullptr || v.component >= info->num_components) {
    return Interval::All();
  }
  return info->dist->Support(info->params, v.component);
}

StatusOr<double> VariablePool::Generate(VarRef v, uint64_t sample_index,
                                        uint64_t attempt) const {
  PIP_RETURN_IF_ERROR(CheckedInfo(v).status());
  static thread_local std::vector<double> joint;  // Reused across calls.
  PIP_RETURN_IF_ERROR(GenerateJoint(v.var_id, sample_index, attempt, &joint));
  return joint[v.component];
}

Status VariablePool::GenerateJoint(uint64_t var_id, uint64_t sample_index,
                                   uint64_t attempt,
                                   std::vector<double>* out) const {
  // Chaos site: a slow or failing draw. Errors abort the statement —
  // they never alter a draw that does complete, so injection preserves
  // the determinism contract.
  if (PIP_FAILPOINT("dist.generate") == failpoints::ActionKind::kError) {
    return Status::Internal("injected draw failure (dist.generate)");
  }
  PIP_ASSIGN_OR_RETURN(const VariableInfo* info, Info(var_id));
  SampleContext ctx{seed_, var_id, sample_index, attempt};
  PIP_RETURN_IF_ERROR(info->dist->GenerateJoint(info->params, ctx, out));
  if (out->size() != info->num_components) {
    return Status::Internal(
        "distribution '" + info->class_name + "' generated " +
        std::to_string(out->size()) + " components, declared " +
        std::to_string(info->num_components));
  }
  return Status::OK();
}

Status VariablePool::GenerateBatch(uint64_t var_id, uint64_t sample_begin,
                                   uint64_t n, uint64_t attempt,
                                   std::vector<double>* out) const {
  if (PIP_FAILPOINT("dist.generate") == failpoints::ActionKind::kError) {
    return Status::Internal("injected draw failure (dist.generate)");
  }
  PIP_ASSIGN_OR_RETURN(const VariableInfo* info, Info(var_id));
  SampleContext ctx{seed_, var_id, sample_begin, attempt};
  out->resize(n * info->num_components);
  return info->dist->GenerateBatch(info->params, ctx, n, out->data());
}

}  // namespace pip
