#include "extensions/weighted_flow.hpp"

#include "extensions/weighted_flow_policy.hpp"
#include "sim/engine.hpp"

namespace osched {

WeightedFlowResult run_weighted_rejection_flow(
    const Instance& instance, const WeightedFlowOptions& options) {
  const std::string problems = instance.validate();
  OSCHED_CHECK(problems.empty()) << "invalid instance: " << problems;

  const StoreReader store(instance.store());
  SimEngineFor<StoreReader> engine(store, &options.fleet);
  Schedule schedule(store.num_jobs());
  WeightedFlowPolicy<StoreReader, Schedule> policy(store, schedule,
                                                   engine.events(), options);
  engine.run(policy);

  WeightedFlowResult result;
  result.rule1_rejections = policy.rule1_rejections();
  result.rule2_rejections = policy.rule2_rejections();
  result.rejected_weight = policy.rejected_weight();
  result.fleet = policy.fleet_stats();
  result.schedule = std::move(schedule);
  return result;
}

}  // namespace osched
