// Planted violation: bounded-queue. A request queue that grows without any
// capacity or watermark reference — the congestion-collapse ingredient the
// overload subsystem removes. herd_lint must flag the declaration because
// nothing in this file names a bound (queue_high/watermark/capacity/window).
#include <cstdint>
#include <deque>

namespace herd::core {

struct PlantedRequest {
  std::uint64_t key = 0;
};

class PlantedUnboundedQueue {
 public:
  void enqueue(const PlantedRequest& r) { pending_.push_back(r); }

 private:
  std::deque<PlantedRequest> pending_;  // expect: bounded-queue (grows forever)
};

}  // namespace herd::core
