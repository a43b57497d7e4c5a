/// \file metropolis.h
/// \brief Metropolis random-walk sampling for constrained variable groups.
///
/// "Starting from an arbitrary point within the sample space, this
/// algorithm performs a random walk weighted towards regions with higher
/// probability densities" (paper §IV-A(d)). PIP switches a variable group
/// to Metropolis when rejection sampling's acceptance rate collapses and
/// every variable in the group provides a PDF. The target density is the
/// product of the variables' densities restricted to the constraint
/// region (an unnormalized density — exactly what Metropolis needs).

#ifndef PIP_SAMPLING_METROPOLIS_H_
#define PIP_SAMPLING_METROPOLIS_H_

#include <vector>

#include "src/common/random.h"
#include "src/constraints/consistency.h"
#include "src/dist/variable_pool.h"
#include "src/expr/condition.h"

namespace pip {

/// \brief Tuning parameters for the Metropolis sampler.
struct MetropolisOptions {
  /// Steps discarded after initialization ("lengthy burn-in period").
  size_t burn_in = 500;
  /// Chain steps between emitted samples (C_steps_per_sample).
  size_t steps_per_sample = 10;
  /// Natural-sampling attempts when scanning for a feasible start point.
  size_t start_point_attempts = 20000;
  /// Proposal standard deviation as a fraction of each variable's scale.
  double step_scale = 0.25;
};

/// \brief A Metropolis-Hastings chain over one independent variable group.
///
/// Restricted to groups of univariate variables with PDFs; multivariate
/// classes without exposed joint densities fall back to rejection sampling
/// upstream. Deterministic given (pool seed, chain key).
class MetropolisSampler {
 public:
  /// `atoms` are the group's constraint atoms (must mention only `vars`);
  /// `bounds` are the consistency-checker refinements used to seed the
  /// start-point scan and to size proposal steps. `chain_key` decorrelates
  /// chains of different rows/groups.
  MetropolisSampler(const VariablePool* pool, std::vector<VarRef> vars,
                    std::vector<ConstraintAtom> atoms,
                    const ConsistencyResult& bounds, uint64_t chain_key,
                    MetropolisOptions options = {});

  /// True when every variable qualifies (univariate with PDF).
  static bool CanHandle(const VariablePool& pool,
                        const std::vector<VarRef>& vars);

  /// Scans for a feasible start point and burns in the chain. Returns
  /// Inconsistent when no start point can be found within the attempt
  /// budget (Alg. 4.3 line 23: "if unable to find a start point return
  /// (NAN, 0)").
  Status Init();

  /// Advances the chain and writes the group's values into `out`.
  /// Requires a successful Init().
  Status NextSample(Assignment* out);

  /// Number of proposal steps taken so far (work accounting for the
  /// W_metropolis cost model).
  size_t steps_taken() const { return steps_taken_; }

 private:
  /// Unnormalized log target density at `point`; -inf outside constraints.
  double LogDensity(const std::vector<double>& point) const;
  bool SatisfiesConstraints(const std::vector<double>& point) const;
  void Step();

  const VariablePool* pool_;
  std::vector<VarRef> vars_;
  std::vector<ConstraintAtom> atoms_;
  std::vector<Interval> var_bounds_;
  std::vector<double> step_sizes_;
  MetropolisOptions options_;
  Rng rng_;

  std::vector<double> current_;
  /// Per-step scratch, kept so a chain step allocates nothing: the
  /// proposal buffer (swapped with current_ on acceptance) and the
  /// Assignment the constraint check fills.
  std::vector<double> proposal_;
  mutable Assignment scratch_;
  double current_log_density_ = 0.0;
  bool initialized_ = false;
  size_t steps_taken_ = 0;
};

}  // namespace pip

#endif  // PIP_SAMPLING_METROPOLIS_H_
