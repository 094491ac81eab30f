// Lint canary: per-WR post_send() loops in herd hot paths. Each iteration
// rings its own doorbell (one PIO transaction per WR); the doorbell
// batching redesign exists so a whole quantum's responses leave as ONE
// chained post_send(span). Both loop shapes below must be flagged; the
// chained flush at the end must not be.
#include <cstdint>
#include <span>
#include <vector>

namespace herd::core {

struct FakeWr {
  std::uint64_t wr_id = 0;
};

struct FakeQp {
  void post_send(const FakeWr& wr);
  void post_send(std::span<const FakeWr> chain);
};

void planted_post_send_loop(FakeQp& qp, const std::vector<FakeWr>& done) {
  for (const FakeWr& wr : done) {
    qp.post_send(wr);  // expect: chain-post
  }
  std::size_t i = 0;
  while (i < done.size()) qp.post_send(done[i++]);  // expect: chain-post

  // The fixed idiom: one chained post for the whole batch. Not flagged.
  qp.post_send(std::span<const FakeWr>(done));
}

}  // namespace herd::core
