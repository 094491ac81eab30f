// HERD wire protocol (§4.2, §4.3).
//
// Requests are right-aligned in a 1 KB slot so the 16-byte keyhash occupies
// the slot's last bytes: the RNIC DMA-writes left to right, so once the
// server's poll loop sees a non-zero keyhash, the entire request is visible.
//
//   slot: [ ......... | value (LEN bytes) | LEN (2) | KEYHASH (16) ]
//                                                    ^ polled
//
// A GET carries only LEN = 0 + keyhash (18 bytes on the wire); a PUT carries
// value + LEN + keyhash. A zero keyhash is reserved — the server zeroes the
// field after serving a slot to re-arm it. The optional headers sit between
// the value and LEN, in this order:
//
//   [ value | tenant, deadline (overload) | token | epoch | LEN | KEYHASH ]
//
// A sampled request's trace context is not among them: it rides the
// simulator's work requests and completions (verbs::SendWr::trace), never
// the modelled bytes, so a traced run simulates the untraced one.
//
// Responses (UD SENDs) are [status (1) | LEN (2) | value]; the client's
// receive buffer leaves 40 bytes in front for the GRH.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>

#include "herd/config.hpp"
#include "kv/keyhash.hpp"

namespace herd::core {

inline constexpr std::uint32_t kSlotBytes = 1024;  // "1 KB slots"
inline constexpr std::uint32_t kMaxValue = 1000;   // "up to 1000 bytes"
inline constexpr std::uint32_t kReqTrailer = 2 + kv::kKeyHashBytes;  // LEN+key
/// LEN sentinel encoding a DELETE (values are capped at 1000 bytes, so any
/// LEN above kMaxValue is never a PUT).
inline constexpr std::uint16_t kDeleteLen = 0xffff;

enum class RespStatus : std::uint8_t {
  kOk = 0,        // GET hit (value follows) or PUT acknowledged
  kNotFound = 1,  // GET miss
  /// Replicated mode only: the addressed process is not the shard's current
  /// primary (the client's shard map is stale — a promotion or migration
  /// moved the shard). The response value is a kRedirectBytes payload
  /// carrying the current (primary, epoch); the client refreshes its map
  /// and re-issues. Not a terminal outcome — never surfaced to histories.
  kWrongEpoch = 2,
  /// Overload mode only: the request was shed by admission control (tenant
  /// quota exhausted or degraded-mode watermark) BEFORE any MICA work or
  /// duplicate-suppression bookkeeping. A kOverloaded reply is a hard
  /// guarantee that this attempt was NOT applied. The response value is a
  /// kRetryAfterBytes payload carrying a retry-after hint in ticks; the
  /// client folds it into its backoff schedule. Not a terminal outcome.
  kOverloaded = 3,
};

inline constexpr std::uint32_t kRespHeader = 3;  // status + LEN
/// Optional request-correlation token (enabled by HerdConfig.request_tokens
/// for deployments using application-level retries): 4 bytes prepended to
/// the LEN field in requests and appended to the response header. Without
/// it, responses are matched to requests FIFO per (client, server process) —
/// correct on a lossless fabric, ambiguous once a lost request lets a later
/// one overtake it.
inline constexpr std::uint32_t kTokenBytes = 4;
/// Optional shard-epoch header (enabled by HerdConfig.replicate): 4 bytes —
/// the low 32 bits of the client's believed epoch for the target shard —
/// between the token and the LEN field. Lets the server distinguish "stale
/// map, reject and redirect" from "correctly routed, epoch merely old".
inline constexpr std::uint32_t kEpochBytes = 4;
/// kWrongEpoch redirect payload: current primary (4) + low epoch bits (4).
inline constexpr std::uint32_t kRedirectBytes = 8;
/// Optional overload header (enabled by OverloadConfig.enable): tenant id
/// (2 bytes) + the request's absolute client-side deadline tick (8 bytes),
/// between the value and the token field. The tenant id keys per-tenant
/// admission quotas and DRR fair dequeue; the deadline lets the server drop
/// already-expired requests before doing any MICA work.
inline constexpr std::uint32_t kOverloadBytes = 2 + 8;
/// kOverloaded retry-after payload: hint in ticks (8 bytes).
inline constexpr std::uint32_t kRetryAfterBytes = 8;

// Per-field offsets, shared by the encode/decode pairs below so the two
// sides cannot drift apart (tests/overload_test.cpp's
// OverloadWire.RequestHeaderRoundTripsInAllCombinations round-trips every
// field under every header combination). Request trailer fields are
// relative to the trailer base (`tail`); optional-header fields are
// relative to their block's start.
inline constexpr std::uint32_t kReqLenOff = 0;            // LEN (2)
inline constexpr std::uint32_t kReqKeyHiOff = 2;          // keyhash.hi (8)
inline constexpr std::uint32_t kReqKeyLoOff = 10;         // keyhash.lo (8)
inline constexpr std::uint32_t kOvTenantOff = 0;          // tenant id
inline constexpr std::uint32_t kOvTenantBytes = 2;
inline constexpr std::uint32_t kOvDeadlineOff = kOvTenantOff + kOvTenantBytes;
inline constexpr std::uint32_t kOvDeadlineBytes = 8;      // deadline tick
inline constexpr std::uint32_t kRespStatusOff = 0;        // status (1)
inline constexpr std::uint32_t kRespLenOff = 1;           // LEN (2)
inline constexpr std::uint32_t kRedirectPrimaryOff = 0;   // primary (4)
inline constexpr std::uint32_t kRedirectEpochOff = 4;     // low epoch (4)

static_assert(kReqKeyHiOff == kReqLenOff + 2,
              "keyhash must start right after LEN");
static_assert(kReqKeyLoOff == kReqKeyHiOff + 8,
              "keyhash halves must be adjacent");
static_assert(kReqKeyLoOff + 8 == kReqTrailer,
              "trailer fields must exactly fill kReqTrailer");
static_assert(kOvDeadlineOff + kOvDeadlineBytes == kOverloadBytes,
              "overload header fields must exactly fill kOverloadBytes");
static_assert(kRespLenOff + 2 == kRespHeader,
              "response header fields must exactly fill kRespHeader");
static_assert(kRedirectEpochOff + 4 == kRedirectBytes,
              "redirect fields must exactly fill kRedirectBytes");
/// Which optional headers a deployment puts on the wire. Built once from
/// the HerdConfig (WireFormat::of) and handed to every encode/decode, so
/// the client and the server cannot disagree on a slot's layout; it owns
/// every header-size sum.
struct WireFormat {
  bool token = false;     // kTokenBytes, HerdConfig.request_tokens
  bool epoch = false;     // kEpochBytes, HerdConfig.replicate
  bool overload = false;  // kOverloadBytes, HerdConfig.overload.enable

  static constexpr WireFormat of(const HerdConfig& cfg) {
    return {cfg.request_tokens, cfg.replicate, cfg.overload.enable};
  }

  /// Request bytes after the value: optional headers + LEN + keyhash.
  constexpr std::uint32_t trailer_bytes() const {
    return kReqTrailer + (token ? kTokenBytes : 0) +
           (epoch ? kEpochBytes : 0) + (overload ? kOverloadBytes : 0);
  }
  /// Bytes a request occupies on the wire (and at the tail of its slot).
  constexpr std::uint32_t request_bytes(std::uint32_t value_len) const {
    return trailer_bytes() + value_len;
  }
  /// Largest PUT value the 1 KB slot still holds with these headers (never
  /// above the paper's 1000-byte cap).
  constexpr std::uint32_t max_value() const {
    std::uint32_t v = kSlotBytes - trailer_bytes();
    return v > kMaxValue ? kMaxValue : v;
  }
  /// Response bytes before the value: status + LEN (+ token).
  constexpr std::uint32_t response_header_bytes() const {
    return kRespHeader + (token ? kTokenBytes : 0);
  }
};

struct Request {
  kv::KeyHash key{};
  bool is_put = false;
  bool is_delete = false;
  std::uint32_t token = 0;             // correlation id (token mode only)
  std::uint32_t epoch = 0;             // shard epoch (replicated mode only)
  std::uint16_t tenant = 0;            // tenant id (overload mode only)
  std::uint64_t deadline = 0;          // absolute deadline tick (0 = none)
  std::span<const std::byte> value{};  // PUT payload (views caller memory)
};

/// Encodes a request right-aligned into `slot` (typically a full 1 KB slot;
/// any frame >= the wire size works — SEND-mode frames are exactly-sized).
/// Returns the offset within the slot where the encoded bytes begin. A
/// request larger than `slot` throws std::length_error before any byte is
/// written.
inline std::uint32_t encode_request(std::span<std::byte> slot,
                                    const Request& req,
                                    const WireFormat& wire) {
  auto vlen = static_cast<std::uint32_t>(req.value.size());
  std::uint32_t bytes = wire.request_bytes(vlen);
  if (bytes > slot.size()) {
    throw std::length_error("encode_request: request outgrows its frame");
  }
  auto start = static_cast<std::uint32_t>(slot.size() - bytes);
  std::byte* p = slot.data() + start;
  if (vlen > 0) std::memcpy(p, req.value.data(), vlen);
  p += vlen;
  if (wire.overload) {
    std::memcpy(p + kOvTenantOff, &req.tenant, kOvTenantBytes);
    std::memcpy(p + kOvDeadlineOff, &req.deadline, kOvDeadlineBytes);
    p += kOverloadBytes;
  }
  if (wire.token) {
    std::memcpy(p, &req.token, kTokenBytes);
    p += kTokenBytes;
  }
  if (wire.epoch) {
    std::memcpy(p, &req.epoch, kEpochBytes);
    p += kEpochBytes;
  }
  std::uint16_t len = req.is_delete ? kDeleteLen
                      : req.is_put  ? static_cast<std::uint16_t>(vlen)
                                    : 0;  // LEN == 0 encodes a GET
  std::memcpy(p + kReqLenOff, &len, 2);
  std::memcpy(p + kReqKeyHiOff, &req.key.hi, 8);
  std::memcpy(p + kReqKeyLoOff, &req.key.lo, 8);
  return start;
}

/// Decodes the request at the tail of `slot`; nullopt if the keyhash is
/// still zero (no request present). PUTs with LEN == 0 are indistinguishable
/// from GETs by design — HERD encodes "GET" as LEN == 0.
inline std::optional<Request> decode_request(std::span<const std::byte> slot,
                                              const WireFormat& wire) {
  std::uint32_t trailer = wire.trailer_bytes();
  if (slot.size() < trailer) return std::nullopt;
  const std::byte* tail = slot.data() + slot.size() - kReqTrailer;
  Request req;
  std::memcpy(&req.key.hi, tail + kReqKeyHiOff, 8);
  std::memcpy(&req.key.lo, tail + kReqKeyLoOff, 8);
  if (req.key.is_zero()) return std::nullopt;
  const std::byte* p = tail;
  if (wire.epoch) {
    p -= kEpochBytes;
    std::memcpy(&req.epoch, p, kEpochBytes);
  }
  if (wire.token) {
    p -= kTokenBytes;
    std::memcpy(&req.token, p, kTokenBytes);
  }
  if (wire.overload) {
    p -= kOverloadBytes;
    std::memcpy(&req.tenant, p + kOvTenantOff, kOvTenantBytes);
    std::memcpy(&req.deadline, p + kOvDeadlineOff, kOvDeadlineBytes);
  }
  std::uint16_t len;
  std::memcpy(&len, tail + kReqLenOff, 2);
  if (len == kDeleteLen) {
    req.is_delete = true;
    return req;
  }
  if (len > kMaxValue || len + trailer > slot.size()) {
    return std::nullopt;  // torn/corrupt
  }
  req.is_put = len > 0;
  if (req.is_put) {
    req.value = slot.subspan(slot.size() - trailer - len, len);
  }
  return req;
}

/// Zeroes the keyhash field, re-arming the slot (server, after responding).
inline void clear_slot(std::span<std::byte> slot) {
  std::memset(slot.data() + slot.size() - kv::kKeyHashBytes, 0,
              kv::kKeyHashBytes);
}

struct Response {
  RespStatus status = RespStatus::kOk;
  std::uint32_t token = 0;             // correlation id (token mode only)
  std::span<const std::byte> value{};  // views caller memory
};

/// Encodes a response into `buf`; returns bytes used.
inline std::uint32_t encode_response(std::span<std::byte> buf,
                                     const Response& resp,
                                     const WireFormat& wire) {
  buf[kRespStatusOff] = static_cast<std::byte>(resp.status);
  auto len = static_cast<std::uint16_t>(resp.value.size());
  std::memcpy(buf.data() + kRespLenOff, &len, 2);
  if (wire.token) {
    std::memcpy(buf.data() + kRespHeader, &resp.token, kTokenBytes);
  }
  std::uint32_t off = wire.response_header_bytes();
  if (!resp.value.empty()) {
    std::memcpy(buf.data() + off, resp.value.data(), resp.value.size());
  }
  return off + len;
}

inline std::optional<Response> decode_response(std::span<const std::byte> buf,
                                               const WireFormat& wire) {
  std::uint32_t header = wire.response_header_bytes();
  if (buf.size() < header) return std::nullopt;
  Response r;
  r.status = static_cast<RespStatus>(buf[kRespStatusOff]);
  std::uint16_t len;
  std::memcpy(&len, buf.data() + kRespLenOff, 2);
  if (wire.token) {
    std::memcpy(&r.token, buf.data() + kRespHeader, kTokenBytes);
  }
  if (len > kMaxValue || buf.size() < header + len) return std::nullopt;
  r.value = buf.subspan(header, len);
  return r;
}

/// kWrongEpoch redirect payload: the authoritative (primary, epoch) for the
/// shard the rejected request targeted. The epoch travels as its low 32
/// bits — epochs bump only on primary changes (promotions, migrations),
/// far too rare to wrap within any deployment's lifetime.
struct Redirect {
  std::uint32_t primary = 0;
  std::uint32_t epoch = 0;
};

inline void encode_redirect(std::span<std::byte> buf, std::uint32_t primary,
                            std::uint64_t epoch) {
  auto ep = static_cast<std::uint32_t>(epoch);
  std::memcpy(buf.data() + kRedirectPrimaryOff, &primary, 4);
  std::memcpy(buf.data() + kRedirectEpochOff, &ep, 4);
}

inline std::optional<Redirect> decode_redirect(
    std::span<const std::byte> buf) {
  if (buf.size() < kRedirectBytes) return std::nullopt;
  Redirect r;
  std::memcpy(&r.primary, buf.data() + kRedirectPrimaryOff, 4);
  std::memcpy(&r.epoch, buf.data() + kRedirectEpochOff, 4);
  return r;
}

/// kOverloaded retry-after payload: how long (in ticks) the shedding server
/// suggests the client wait before retrying — time-to-next-token for quota
/// sheds, a configured hold-off for degraded-mode sheds. Advisory: the
/// client takes max(hint, its own backoff step).
struct RetryAfter {
  std::uint64_t ticks = 0;
};

inline void encode_retry_after(std::span<std::byte> buf, std::uint64_t ticks) {
  std::memcpy(buf.data(), &ticks, 8);
}

inline std::optional<RetryAfter> decode_retry_after(
    std::span<const std::byte> buf) {
  if (buf.size() < kRetryAfterBytes) return std::nullopt;
  RetryAfter r;
  std::memcpy(&r.ticks, buf.data(), 8);
  return r;
}

}  // namespace herd::core
