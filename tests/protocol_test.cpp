// Unit + property tests: HERD wire protocol and request-region layout
// (Fig. 8, §4.2).
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "herd/protocol.hpp"
#include "herd/request_region.hpp"
#include "herd/token_ring.hpp"
#include "sim/rng.hpp"
#include "workload/workload.hpp"

namespace herd::core {
namespace {

constexpr WireFormat kPlain{};
constexpr WireFormat kToken{.token = true};
constexpr WireFormat kAllHeaders{.token = true, .epoch = true,
                                 .overload = true};

TEST(Protocol, GetEncodesEighteenBytes) {
  // "A GET request consists only of a 16-byte keyhash" (+ our LEN=0 marker).
  EXPECT_EQ(kPlain.request_bytes(0), 18u);
}

TEST(Protocol, EmptySlotDecodesToNothing) {
  std::vector<std::byte> slot(kSlotBytes, std::byte{0});
  EXPECT_FALSE(decode_request(slot, kPlain).has_value());
}

TEST(Protocol, GetRoundTrip) {
  std::vector<std::byte> slot(kSlotBytes, std::byte{0});
  Request req;
  req.key = kv::hash_of_rank(3);
  req.is_put = false;
  std::uint32_t start = encode_request(slot, req, kPlain);
  EXPECT_EQ(start, kSlotBytes - 18);
  auto dec = decode_request(slot, kPlain);
  ASSERT_TRUE(dec.has_value());
  EXPECT_FALSE(dec->is_put);
  EXPECT_TRUE(dec->key == req.key);
}

class ProtocolValueSizeTest
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ProtocolValueSizeTest, PutRoundTripsEverySize) {
  std::uint32_t len = GetParam();
  std::vector<std::byte> slot(kSlotBytes, std::byte{0});
  std::vector<std::byte> value(len);
  workload::WorkloadGenerator::fill_value(len, value);
  Request req;
  req.key = kv::hash_of_rank(len);
  req.is_put = true;
  req.value = value;
  std::uint32_t start = encode_request(slot, req, kPlain);
  EXPECT_EQ(start, kSlotBytes - 18 - len);
  auto dec = decode_request(slot, kPlain);
  ASSERT_TRUE(dec.has_value());
  EXPECT_TRUE(dec->is_put);
  EXPECT_TRUE(dec->key == req.key);
  ASSERT_EQ(dec->value.size(), len);
  EXPECT_TRUE(std::equal(value.begin(), value.end(), dec->value.begin()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ProtocolValueSizeTest,
                         ::testing::Values(1, 2, 16, 32, 100, 500, 999,
                                           1000));

TEST(Protocol, KeyhashOccupiesSlotTail) {
  // The keyhash must land in the *rightmost* 16 bytes so left-to-right DMA
  // ordering makes it the last thing visible (§4.2).
  std::vector<std::byte> slot(kSlotBytes, std::byte{0});
  Request req;
  req.key = kv::hash_of_rank(8);
  encode_request(slot, req, kPlain);
  kv::KeyHash tail;
  std::memcpy(&tail.hi, slot.data() + kSlotBytes - 16, 8);
  std::memcpy(&tail.lo, slot.data() + kSlotBytes - 8, 8);
  EXPECT_TRUE(tail == req.key);
}

TEST(Protocol, ClearSlotReArms) {
  std::vector<std::byte> slot(kSlotBytes, std::byte{0});
  Request req;
  req.key = kv::hash_of_rank(9);
  encode_request(slot, req, kPlain);
  ASSERT_TRUE(decode_request(slot, kPlain).has_value());
  clear_slot(slot);
  EXPECT_FALSE(decode_request(slot, kPlain).has_value());
}

TEST(Protocol, ExactlySizedSendFrameDecodes) {
  // SEND-mode frames are exactly the wire size, not a full slot.
  std::vector<std::byte> value(40);
  workload::WorkloadGenerator::fill_value(1, value);
  std::vector<std::byte> frame(kPlain.request_bytes(40));
  Request req;
  req.key = kv::hash_of_rank(1);
  req.is_put = true;
  req.value = value;
  EXPECT_EQ(encode_request(frame, req, kPlain), 0u);
  auto dec = decode_request(frame, kPlain);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->value.size(), 40u);
}

TEST(Protocol, CorruptLenRejected) {
  std::vector<std::byte> slot(kSlotBytes, std::byte{0});
  Request req;
  req.key = kv::hash_of_rank(2);
  encode_request(slot, req, kPlain);
  // Overwrite LEN with something beyond kMaxValue.
  std::uint16_t bad = kMaxValue + 100;
  std::memcpy(slot.data() + kSlotBytes - kReqTrailer, &bad, 2);
  EXPECT_FALSE(decode_request(slot, kPlain).has_value());
}

TEST(Protocol, LenLargerThanFrameRejected) {
  std::vector<std::byte> frame(32);  // too small for its declared value
  kv::KeyHash key = kv::hash_of_rank(5);
  std::uint16_t len = 100;
  std::memcpy(frame.data() + 32 - 18, &len, 2);
  std::memcpy(frame.data() + 32 - 16, &key.hi, 8);
  std::memcpy(frame.data() + 32 - 8, &key.lo, 8);
  EXPECT_FALSE(decode_request(frame, kPlain).has_value());
}

TEST(Protocol, ResponseRoundTrip) {
  std::vector<std::byte> buf(1024);
  std::vector<std::byte> value(64);
  workload::WorkloadGenerator::fill_value(4, value);
  std::uint32_t n = encode_response(buf, {RespStatus::kOk, 0, value}, kPlain);
  EXPECT_EQ(n, kRespHeader + 64);
  auto dec = decode_response(std::span<const std::byte>(buf).first(n), kPlain);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->status, RespStatus::kOk);
  ASSERT_EQ(dec->value.size(), 64u);
  EXPECT_TRUE(std::equal(value.begin(), value.end(), dec->value.begin()));
}

TEST(Protocol, NotFoundResponse) {
  std::vector<std::byte> buf(16);
  std::uint32_t n = encode_response(buf, {RespStatus::kNotFound}, kPlain);
  auto dec = decode_response(std::span<const std::byte>(buf).first(n), kPlain);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->status, RespStatus::kNotFound);
  EXPECT_TRUE(dec->value.empty());
}

TEST(Protocol, TruncatedResponseRejected) {
  std::vector<std::byte> buf(2, std::byte{0});
  EXPECT_FALSE(decode_response(buf, kPlain).has_value());
}

// ---------------------------------------------------------------------------
// DELETE encoding and the correlation-token extension (resilience mode).

TEST(Protocol, DeleteRoundTrip) {
  // A DELETE is keyhash + the LEN sentinel: same 18 wire bytes as a GET.
  std::vector<std::byte> slot(kSlotBytes, std::byte{0});
  Request req;
  req.key = kv::hash_of_rank(11);
  req.is_delete = true;
  std::uint32_t start = encode_request(slot, req, kPlain);
  EXPECT_EQ(start, kSlotBytes - 18);
  auto dec = decode_request(slot, kPlain);
  ASSERT_TRUE(dec.has_value());
  EXPECT_TRUE(dec->is_delete);
  EXPECT_FALSE(dec->is_put);
  EXPECT_TRUE(dec->key == req.key);
  EXPECT_TRUE(dec->value.empty());
}

TEST(Protocol, DeleteRoundTripWithToken) {
  std::vector<std::byte> slot(kSlotBytes, std::byte{0});
  Request req;
  req.key = kv::hash_of_rank(12);
  req.is_delete = true;
  req.token = 0xCAFE1234;
  std::uint32_t start = encode_request(slot, req, kToken);
  EXPECT_EQ(start, kSlotBytes - kToken.request_bytes(0));
  EXPECT_EQ(kToken.request_bytes(0), 22u);  // GET/DELETE + 4-byte token
  auto dec = decode_request(slot, kToken);
  ASSERT_TRUE(dec.has_value());
  EXPECT_TRUE(dec->is_delete);
  EXPECT_EQ(dec->token, 0xCAFE1234u);
  EXPECT_TRUE(dec->key == req.key);
}

TEST(Protocol, PutRoundTripWithToken) {
  // The token sits between the value and LEN; it must not shift or corrupt
  // the payload.
  std::vector<std::byte> slot(kSlotBytes, std::byte{0});
  std::vector<std::byte> value(100);
  workload::WorkloadGenerator::fill_value(7, value);
  Request req;
  req.key = kv::hash_of_rank(7);
  req.is_put = true;
  req.token = 42;
  req.value = value;
  encode_request(slot, req, kToken);
  auto dec = decode_request(slot, kToken);
  ASSERT_TRUE(dec.has_value());
  EXPECT_TRUE(dec->is_put);
  EXPECT_EQ(dec->token, 42u);
  ASSERT_EQ(dec->value.size(), 100u);
  EXPECT_TRUE(std::equal(value.begin(), value.end(), dec->value.begin()));
}

TEST(Protocol, TokenModeMismatchDetectable) {
  // Decoding a token-mode DELETE as token-less must not read the token as a
  // LEN: the sentinel sits in the LEN field either way.
  std::vector<std::byte> slot(kSlotBytes, std::byte{0});
  Request req;
  req.key = kv::hash_of_rank(13);
  req.is_delete = true;
  req.token = 99;
  encode_request(slot, req, kToken);
  auto dec = decode_request(slot, kPlain);
  ASSERT_TRUE(dec.has_value());
  EXPECT_TRUE(dec->is_delete);  // sentinel survives; token simply not read
  EXPECT_EQ(dec->token, 0u);
}

TEST(Protocol, TruncatedTokenModeDeleteRejected) {
  // A token-less-sized DELETE frame (18 B) decoded in token mode is shorter
  // than the 22-byte trailer; the size guard must fire before the DELETE
  // sentinel early-return can read a token out of bounds.
  std::vector<std::byte> frame(18, std::byte{0});
  Request req;
  req.key = kv::hash_of_rank(14);
  req.is_delete = true;
  encode_request(frame, req, kPlain);
  EXPECT_FALSE(decode_request(frame, kToken).has_value());
}

TEST(Protocol, ResponseRoundTripWithToken) {
  std::vector<std::byte> buf(1024);
  std::vector<std::byte> value(32);
  workload::WorkloadGenerator::fill_value(6, value);
  std::uint32_t n =
      encode_response(buf, {RespStatus::kOk, /*token=*/0xBEEF, value}, kToken);
  EXPECT_EQ(n, kRespHeader + kTokenBytes + 32);
  auto dec = decode_response(std::span<const std::byte>(buf).first(n), kToken);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->status, RespStatus::kOk);
  EXPECT_EQ(dec->token, 0xBEEFu);
  ASSERT_EQ(dec->value.size(), 32u);
  EXPECT_TRUE(std::equal(value.begin(), value.end(), dec->value.begin()));
}

TEST(Protocol, DeletedAckResponseWithTokenHasNoValue) {
  std::vector<std::byte> buf(64);
  std::uint32_t n =
      encode_response(buf, {RespStatus::kNotFound, /*token=*/7}, kToken);
  EXPECT_EQ(n, kRespHeader + kTokenBytes);
  auto dec = decode_response(std::span<const std::byte>(buf).first(n), kToken);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->status, RespStatus::kNotFound);
  EXPECT_EQ(dec->token, 7u);
  EXPECT_TRUE(dec->value.empty());
}

TEST(Protocol, EncodeRejectsRequestLargerThanFrame) {
  // A full-size value plus token, epoch and overload headers outgrows the
  // 1 KB slot: the encoder must refuse it without writing a byte, inside
  // the slot or in front of it.
  ASSERT_GT(kAllHeaders.request_bytes(kMaxValue), kSlotBytes);
  std::vector<std::byte> value(kMaxValue, std::byte{1});
  Request req;
  req.key = kv::hash_of_rank(9);
  req.is_put = true;
  req.value = value;
  std::vector<std::byte> buf(2 * kSlotBytes, std::byte{0x5a});
  std::span<std::byte> slot(buf.data() + kSlotBytes, kSlotBytes);
  EXPECT_THROW(encode_request(slot, req, kAllHeaders), std::length_error);
  for (std::byte b : buf) ASSERT_EQ(b, std::byte{0x5a});

  // A SEND frame one byte short of the wire size is refused too; the exact
  // size fits.
  req.value = std::span<const std::byte>(value.data(), 40);
  std::vector<std::byte> frame(kToken.request_bytes(40) - 1);
  EXPECT_THROW(encode_request(frame, req, kToken), std::length_error);
  frame.resize(frame.size() + 1);
  EXPECT_EQ(encode_request(frame, req, kToken), 0u);
}

// ---------------------------------------------------------------------------
// Hostile wire bytes: seeded byte mutations of valid encodings. Whatever a
// torn, corrupt or malicious buffer holds, a decoder either rejects it or
// returns fields that lie inside it. Each mutated buffer is a fresh,
// exactly-sized allocation, so under ASan a read past it faults.

// `v` lies inside `buf`.
bool inside(std::span<const std::byte> v, std::span<const std::byte> buf) {
  return v.empty() || (v.data() >= buf.data() &&
                       v.data() + v.size() <= buf.data() + buf.size());
}

// One hostile rewrite of `wire`: 1-4 bytes overwritten at random, one bit
// flipped, or the buffer cut short at the front or the back.
std::vector<std::byte> mutate(const std::vector<std::byte>& wire,
                              sim::Pcg32& rng) {
  std::vector<std::byte> out = wire;
  switch (rng.next_u32() % 4) {
    case 0:
      for (std::uint32_t n = 1 + rng.next_u32() % 4; n > 0; --n) {
        out[rng.next_u32() % out.size()] = std::byte(rng.next_u32());
      }
      break;
    case 1:
      out[rng.next_u32() % out.size()] ^= std::byte(1u << rng.next_u32() % 8);
      break;
    case 2:
      out.erase(out.begin(), out.begin() + rng.next_u32() % (out.size() + 1));
      break;
    default:
      out.resize(rng.next_u32() % (out.size() + 1));
      break;
  }
  return {out.begin(), out.end()};
}

constexpr int kMutations = 3000;  // per header combination / payload kind

TEST(ProtocolFuzz, MutatedRequestsDecodeInBoundsOrNotAtAll) {
  sim::Pcg32 rng(0xfa57);
  for (std::uint32_t combo = 0; combo < 8; ++combo) {
    const WireFormat wf{.token = (combo & 1) != 0,
                        .epoch = (combo & 2) != 0,
                        .overload = (combo & 4) != 0};
    SCOPED_TRACE(::testing::Message() << "token=" << wf.token << " epoch="
                                      << wf.epoch << " overload="
                                      << wf.overload);
    int decoded = 0;
    for (int i = 0; i < kMutations; ++i) {
      std::vector<std::byte> value(rng.next_u32() %
                                   (wf.max_value() + 1));
      workload::WorkloadGenerator::fill_value(i, value);
      Request req;
      req.key = kv::hash_of_rank(i);
      req.is_delete = rng.next_u32() % 8 == 0;
      req.is_put = !req.is_delete && !value.empty();
      if (req.is_put) req.value = value;
      req.token = rng.next_u32();
      req.epoch = rng.next_u32();
      req.tenant = static_cast<std::uint16_t>(rng.next_u32());
      req.deadline = rng.next_u64();
      // WRITE mode polls a full slot; SEND mode gets an exact frame.
      std::vector<std::byte> wire(
          rng.next_u32() % 2 == 0
              ? kSlotBytes
              : wf.request_bytes(static_cast<std::uint32_t>(req.value.size())));
      encode_request(wire, req, wf);
      std::vector<std::byte> hostile = mutate(wire, rng);
      auto dec = decode_request(hostile, wf);
      if (!dec) continue;
      ++decoded;
      EXPECT_FALSE(dec->key.is_zero());
      EXPECT_FALSE(dec->is_put && dec->is_delete);
      EXPECT_LE(dec->value.size(), kMaxValue);
      EXPECT_TRUE(inside(dec->value, hostile));
      EXPECT_EQ(dec->is_put, !dec->value.empty());
    }
    EXPECT_GT(decoded, 0);  // the property is not vacuous
  }
}

TEST(ProtocolFuzz, MutatedResponsesDecodeInBoundsOrNotAtAll) {
  sim::Pcg32 rng(0xbeef);
  for (const WireFormat& wf : {kPlain, kToken}) {
    SCOPED_TRACE(::testing::Message() << "token=" << wf.token);
    int decoded = 0;
    for (int i = 0; i < kMutations; ++i) {
      // A value response, or a kWrongEpoch redirect / kOverloaded
      // retry-after carrying its fixed payload.
      std::vector<std::byte> value;
      auto status = static_cast<RespStatus>(rng.next_u32() % 4);
      if (status == RespStatus::kWrongEpoch) {
        value.resize(kRedirectBytes);
        encode_redirect(value, rng.next_u32(), rng.next_u64());
      } else if (status == RespStatus::kOverloaded) {
        value.resize(kRetryAfterBytes);
        encode_retry_after(value, rng.next_u64());
      } else if (status == RespStatus::kOk) {
        value.resize(rng.next_u32() % (kMaxValue + 1));
        workload::WorkloadGenerator::fill_value(i, value);
      }
      std::vector<std::byte> wire(kRespHeader + kTokenBytes + kMaxValue);
      wire.resize(encode_response(wire, {status, rng.next_u32(), value}, wf));
      std::vector<std::byte> hostile = mutate(wire, rng);
      auto dec = decode_response(hostile, wf);
      if (!dec) continue;
      ++decoded;
      EXPECT_LE(dec->value.size(), kMaxValue);
      EXPECT_TRUE(inside(dec->value, hostile));
      // The client decodes the payload of a redirect or shed reply next.
      EXPECT_EQ(decode_redirect(dec->value).has_value(),
                dec->value.size() >= kRedirectBytes);
      EXPECT_EQ(decode_retry_after(dec->value).has_value(),
                dec->value.size() >= kRetryAfterBytes);
    }
    EXPECT_GT(decoded, 0);
  }
}

TEST(ProtocolFuzz, MutatedRedirectAndRetryAfterPayloadsDecodeInBounds) {
  sim::Pcg32 rng(0xd1ce);
  for (int i = 0; i < kMutations; ++i) {
    std::vector<std::byte> redirect(kRedirectBytes);
    encode_redirect(redirect, rng.next_u32(), rng.next_u64());
    std::vector<std::byte> hostile = mutate(redirect, rng);
    EXPECT_EQ(decode_redirect(hostile).has_value(),
              hostile.size() >= kRedirectBytes);

    std::vector<std::byte> retry(kRetryAfterBytes);
    encode_retry_after(retry, rng.next_u64());
    hostile = mutate(retry, rng);
    EXPECT_EQ(decode_retry_after(hostile).has_value(),
              hostile.size() >= kRetryAfterBytes);
  }
}

// ---------------------------------------------------------------------------
// Request region layout (Fig. 8).

TEST(RequestRegion, PaperSizingExample) {
  // "With NC = 200, NS = 16 and W = 2, this is approximately 6 MB."
  RequestRegion r(0, 16, 200, 2);
  EXPECT_EQ(r.size_bytes(), 16ull * 200 * 2 * 1024);
  EXPECT_NEAR(static_cast<double>(r.size_bytes()) / (1 << 20), 6.25, 0.01);
}

TEST(RequestRegion, SlotFormulaMatchesPaper) {
  // "it polls the request region at the request slot number
  //  s*(W*Nc) + (c*W) + r mod W"
  RequestRegion r(0, 4, 10, 8);
  for (std::uint32_t s = 0; s < 4; ++s) {
    for (std::uint32_t c = 0; c < 10; ++c) {
      for (std::uint64_t req = 0; req < 20; ++req) {
        EXPECT_EQ(r.slot_index(s, c, req),
                  std::uint64_t{s} * (8 * 10) + c * 8 + (req % 8));
      }
    }
  }
}

TEST(RequestRegion, SlotsAreDisjointAcrossClientsAndProcs) {
  RequestRegion r(4096, 3, 7, 4);
  std::set<std::uint64_t> addrs;
  for (std::uint32_t s = 0; s < 3; ++s) {
    for (std::uint32_t c = 0; c < 7; ++c) {
      for (std::uint64_t w = 0; w < 4; ++w) {
        auto a = r.slot_addr(s, c, w);
        EXPECT_TRUE(addrs.insert(a).second) << "duplicate slot";
        EXPECT_GE(a, r.base());
        EXPECT_LT(a, r.base() + r.size_bytes());
        EXPECT_EQ((a - r.base()) % kSlotBytes, 0u);
      }
    }
  }
  EXPECT_EQ(addrs.size(), 3u * 7 * 4);
}

TEST(RequestRegion, LocateInvertsSlotAddr) {
  RequestRegion r(10240, 5, 9, 3);
  for (std::uint32_t s = 0; s < 5; ++s) {
    for (std::uint32_t c = 0; c < 9; ++c) {
      for (std::uint64_t w = 0; w < 3; ++w) {
        auto id = r.locate(s, r.slot_addr(s, c, w));
        EXPECT_EQ(id.client, c);
        EXPECT_EQ(id.wslot, w % 3);
      }
    }
  }
}

TEST(RequestRegion, ChunksTileTheRegion) {
  RequestRegion r(0, 4, 6, 2);
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(r.chunk_addr(s), s * r.chunk_bytes());
  }
  EXPECT_EQ(r.chunk_bytes() * 4, r.size_bytes());
}

// --- TokenRing: the duplicate-mutation response cache --------------------

TEST(TokenRing, ReplaysRecordedResult) {
  TokenRing ring(sim::ms(10));
  ring.insert(5, static_cast<std::uint8_t>(RespStatus::kNotFound), sim::us(1));
  ring.insert(6, static_cast<std::uint8_t>(RespStatus::kOk), sim::us(2));
  auto r5 = ring.find(5);
  ASSERT_TRUE(r5.has_value());
  EXPECT_EQ(*r5, static_cast<std::uint8_t>(RespStatus::kNotFound));
  auto r6 = ring.find(6);
  ASSERT_TRUE(r6.has_value());
  EXPECT_EQ(*r6, static_cast<std::uint8_t>(RespStatus::kOk));
  EXPECT_FALSE(ring.find(7).has_value());
}

TEST(TokenRing, RetainsEntriesForTheConfiguredHorizon) {
  TokenRing ring(sim::us(100));
  ring.insert(1, 0, sim::us(0));
  ring.insert(2, 0, sim::us(90));
  // Within the horizon nothing is pruned, no matter how many land.
  EXPECT_TRUE(ring.find(1).has_value());
  // An insert past entry 1's horizon prunes it but keeps entry 2.
  ring.insert(3, 0, sim::us(150));
  EXPECT_FALSE(ring.find(1).has_value());
  EXPECT_TRUE(ring.find(2).has_value());
  EXPECT_EQ(ring.size(), 2u);
}

TEST(TokenRing, ProvablyNewTracksTheNewestSequence) {
  TokenRing ring(sim::ms(10));
  EXPECT_TRUE(ring.provably_new(0));  // empty cache: anything is new
  ring.insert(10, 0, 0);
  EXPECT_TRUE(ring.provably_new(11));
  EXPECT_FALSE(ring.provably_new(10));
  EXPECT_FALSE(ring.provably_new(9));
}

TEST(TokenRing, WrapOldEntryDoesNotShadowNewToken) {
  // A client's 64-bit sequence crosses 2^32, so the 4-byte wire token
  // wraps. A mutation cached at sequence 5 must NOT suppress the brand-new
  // mutation at sequence 2^32 + 5, which carries the identical wire token.
  TokenRing ring(sim::ms(100));
  ring.insert(5, static_cast<std::uint8_t>(RespStatus::kOk), sim::us(1));
  ring.insert(0xFFFFFFF0u, 0, sim::us(2));  // sequence advances near the wrap
  // Post-wrap, token 5 means sequence 0x1'0000'0005 — a different identity.
  EXPECT_FALSE(ring.find(5).has_value());
  ring.insert(5, 0, sim::us(3));                  // applies as new
  EXPECT_TRUE(ring.find(5).has_value());          // its retry dedups
}

TEST(TokenRing, WrapRetryStillDedupsAcrossTheBoundary) {
  // The converse: a mutation applied just before the wrap is retried just
  // after other mutations crossed it. Serial-number expansion must still
  // match the pre-wrap entry.
  TokenRing ring(sim::ms(100));
  ring.insert(0xFFFFFFFEu, static_cast<std::uint8_t>(RespStatus::kNotFound),
              sim::us(1));
  ring.insert(1, 0, sim::us(2));  // sequence 2^32 + 1: newest crosses the wrap
  ring.insert(3, 0, sim::us(3));
  auto replay = ring.find(0xFFFFFFFEu);  // late retry from before the wrap
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(*replay, static_cast<std::uint8_t>(RespStatus::kNotFound));
  // And post-wrap tokens are strictly newer than every pre-wrap entry.
  EXPECT_TRUE(ring.provably_new(4));
  EXPECT_FALSE(ring.provably_new(0xFFFFFFFEu));
}

TEST(TokenRing, ExpandIsPureAndAnchoredAtNewest) {
  TokenRing ring(sim::ms(10));
  EXPECT_EQ(ring.expand(7), 7u);  // empty: identity
  ring.insert(0xFFFFFFF0u, 0, 0);
  EXPECT_EQ(ring.expand(2), 0x100000002ULL);   // ahead of newest, post-wrap
  EXPECT_EQ(ring.expand(0xFFFFFF00u), 0xFFFFFF00ULL);  // behind newest
  // expand() never moves the anchor: repeated queries agree.
  EXPECT_EQ(ring.expand(2), 0x100000002ULL);
  // Early in a client's life negative deltas would underflow below zero;
  // expansion falls back to the raw token (sequences start near zero).
  TokenRing young(sim::ms(10));
  young.insert(10, 0, 0);
  EXPECT_EQ(young.expand(0xFFFFFFF0u), 0xFFFFFFF0ULL);
}

}  // namespace
}  // namespace herd::core
