#include "src/sampling/plan_cache.h"

namespace pip {

std::shared_ptr<const PlanSkeleton> PlanCache::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return it->second;
}

void PlanCache::Insert(const std::string& key,
                       std::shared_ptr<const PlanSkeleton> skeleton) {
  std::lock_guard<std::mutex> lock(mu_);
  map_.emplace(key, std::move(skeleton));
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace pip
