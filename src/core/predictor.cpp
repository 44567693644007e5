#include "core/predictor.hpp"

#include "util/error.hpp"

namespace fgcs {

SparseTrSolver::Result solve_from_curves(AbsorptionCurves& curves, State init,
                                         std::size_t n_steps) {
  curves.extend_to(n_steps);
  return curves.result_at(init, n_steps);
}

AvailabilityPredictor::AvailabilityPredictor(EstimatorConfig config)
    : estimator_(config) {}

Prediction AvailabilityPredictor::predict(const MachineTrace& trace,
                                          const PredictionRequest& request) const {
  validate(request.window);
  FGCS_REQUIRE_MSG(request.target_day >= 0 &&
                       request.target_day <= trace.day_count(),
                   "target day beyond recorded history + 1");

  Prediction prediction;
  prediction.steps = request.window.steps(trace.sampling_period());

  const SmpFit fit =
      estimator_.fit(trace, request.target_day, request.window);
  prediction.training_days_used = fit.training_days;
  prediction.initial_state = request.initial_state.value_or(fit.majority_initial);
  FGCS_REQUIRE_MSG(is_available(prediction.initial_state),
                   "initial state must be S1 or S2");

  const AbsorptionCurves curves(fit.model, prediction.steps);
  const SparseTrSolver::Result result =
      curves.result_at(prediction.initial_state, prediction.steps);
  prediction.temporal_reliability = result.temporal_reliability;
  prediction.p_absorb = result.p_absorb;
  return prediction;
}

}  // namespace fgcs
