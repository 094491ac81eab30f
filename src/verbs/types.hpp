// Verbs API data types, mirroring the ibverbs vocabulary (§2.2.2).
#pragma once

#include <cstdint>

#include "obs/trace.hpp"

namespace herd::verbs {

class Context;
class Qp;

/// Transport types (§2.2.3, Table 1).
enum class Transport : std::uint8_t {
  kRc,  // Reliable Connection: SEND/RECV, WRITE, READ
  kUc,  // Unreliable Connection: SEND/RECV, WRITE
  kUd,  // Unreliable Datagram: SEND/RECV only
};

/// Work-request opcodes posted to a send queue.
enum class Opcode : std::uint8_t { kSend, kWrite, kRead };

enum class WcStatus : std::uint8_t {
  kSuccess,
  kRemoteAccessError,   // rkey/bounds/permission failure (RC: NAK to requester)
  kRnrRetryExceeded,    // RC SEND with no RECV posted at the responder
  kLocalLengthError,    // RECV buffer too small for an arriving SEND
  kRetryExceeded,       // RC retransmission budget exhausted (IBV_WC_RETRY_EXC_ERR)
  kWrFlushErr,          // WR flushed: posted to a QP in the error state
};

/// Queue-pair state machine (the subset of the ibverbs states the model
/// distinguishes). A QP moves to kError when RC retransmission is
/// exhausted; posting to an errored QP flushes the WR with kWrFlushErr.
/// `Qp::reset()` is the modify-to-RTS cycle that re-arms it.
enum class QpState : std::uint8_t { kReady, kError };

enum class WcOpcode : std::uint8_t { kSend, kWrite, kRead, kRecv };

/// Completion queue entry.
struct Wc {
  std::uint64_t wr_id = 0;
  WcStatus status = WcStatus::kSuccess;
  WcOpcode opcode = WcOpcode::kSend;
  /// For RECV completions: bytes written to the buffer — on UD this includes
  /// the 40-byte GRH, as in ibverbs.
  std::uint32_t byte_len = 0;
  /// For UD RECV completions: the sender's QP number and port (the ibverbs
  /// src_qp / slid pair — together they identify the sender).
  std::uint32_t src_qp = 0;
  std::uint32_t src_port = 0;
  /// For RECV completions: the trace context of the SEND that filled the
  /// buffer (simulator-side metadata, never wire bytes; see SendWr::trace).
  obs::TraceCtx trace{};
};

/// Size of the Global Routing Header prepended to UD receive payloads.
inline constexpr std::uint32_t kGrhBytes = 40;

/// Address handle for UD sends: identifies the remote port + QP.
struct Ah {
  Context* ctx = nullptr;
  std::uint32_t qpn = 0;
};

/// Scatter/gather entry (we model a single SGE per WR, as all of the paper's
/// systems use).
struct Sge {
  std::uint64_t addr = 0;
  std::uint32_t length = 0;
  std::uint32_t lkey = 0;
};

struct SendWr {
  std::uint64_t wr_id = 0;
  Opcode opcode = Opcode::kSend;
  Sge sge{};
  /// WRITE/READ: target in the remote host's registered memory.
  std::uint64_t remote_addr = 0;
  std::uint32_t rkey = 0;
  /// Inline the payload into the WQE (PIO), skipping the payload DMA read.
  bool inline_data = false;
  /// Selective signaling: unsignaled verbs produce no CQE (§2.2.2).
  bool signaled = true;
  /// UD SENDs: destination address handle.
  Ah ah{};
  /// Causal-trace annotation (simulator-side, not wire bytes: nothing the
  /// model times or delivers depends on it): the context of the sampled
  /// request this WR belongs to, or unsampled. The RNIC pipeline spans on
  /// both hosts carry it, and the responder hands it to the host with the
  /// data: to the memory watch when a WRITE lands, and in Wc::trace on a
  /// RECV completion. So a request's RNIC and server hops group under the
  /// trace id of its client spans.
  obs::TraceCtx trace{};
};

struct RecvWr {
  std::uint64_t wr_id = 0;
  Sge sge{};
};

/// Registered memory region. `lkey` authorizes local access, `rkey` remote.
struct Mr {
  std::uint64_t addr = 0;
  std::uint64_t length = 0;
  std::uint32_t lkey = 0;
  std::uint32_t rkey = 0;
  bool remote_write = false;
  bool remote_read = false;
};

/// Access flags for memory registration.
struct MrAccess {
  bool remote_write = false;
  bool remote_read = false;
};

}  // namespace herd::verbs
