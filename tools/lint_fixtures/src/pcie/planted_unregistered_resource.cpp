// Planted violation for the herd_lint self-test: constructs a
// sim::Resource in a simulation path without ever touching the resource
// registry. The canary test requires herd_lint to flag this file
// [resource-registry]; if it passes, the rule went blind.
#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace herd::pcie {

class HiddenLink {
 public:
  explicit HiddenLink(sim::Engine& engine)
      : res_(engine, "pcie.hidden") {}

  sim::Tick push(sim::Tick cost) { return res_.acquire(cost); }

 private:
  sim::Resource res_;  // expect: resource-registry
};

}  // namespace herd::pcie
