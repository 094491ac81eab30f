// Lint canary: iterating a pointer-keyed unordered container. Iteration
// order follows pointer hash order, which follows allocator layout (ASLR),
// so any simulation decision made in this loop differs run to run.
#include <cstdint>
#include <unordered_map>

namespace herd::core {

struct Qp;

std::uint64_t planted_ptr_iter(const std::unordered_map<Qp*, int>& by_qp) {
  std::unordered_map<const Qp*, std::uint64_t> credits;
  std::uint64_t sum = 0;
  for (const auto& kv : credits) {  // expect: ptr-key-iter
    sum += kv.second;
  }
  for (const auto& kv : by_qp) {  // expect: ptr-key-iter
    sum += static_cast<std::uint64_t>(kv.second);
  }
  return sum;
}

}  // namespace herd::core
