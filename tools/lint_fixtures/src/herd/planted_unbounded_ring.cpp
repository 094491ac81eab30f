// Planted violation: bounded-queue. The same unbounded request queue as
// planted_unbounded_queue.cpp, held in a sim::RingDeque, which grows like
// std::deque. herd_lint must flag the declaration because nothing in this
// file names a bound (queue_high/watermark/capacity/window).
#include <cstdint>

#include "sim/ring_deque.hpp"

namespace herd::core {

struct PlantedRingRequest {
  std::uint64_t key = 0;
};

class PlantedUnboundedRing {
 public:
  void enqueue(const PlantedRingRequest& r) { pending_.push_back(r); }

 private:
  sim::RingDeque<PlantedRingRequest> pending_;  // expect: bounded-queue (grows forever)
};

}  // namespace herd::core
