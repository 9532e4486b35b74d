// Wire-codec round-trip, byte-identity, malformed-frame and fuzz tests.
//
// Separate binary: like test_alloc_guard, it replaces the global allocation
// functions with counting wrappers to pin the codec's reject path at zero
// heap traffic — a hostile peer spraying garbage frames must not be able to
// make the receiver allocate (let alone crash), so every verdict in the
// malformed corpus is decoded once more inside a counted window — and to pin
// a steady-state SimTransport round-trip at zero allocations.
#include "transport/crc32.hpp"
#include "transport/wire_codec.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "net/overlay.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "transport/sim_transport.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void note_allocation() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

void* checked_malloc(std::size_t n) {
  note_allocation();
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* checked_aligned(std::size_t n, std::size_t align) {
  note_allocation();
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align, n == 0 ? 1 : n) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return checked_malloc(n); }
void* operator new[](std::size_t n) { return checked_malloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return checked_aligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return checked_aligned(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace p2panon;
using namespace p2panon::transport;

/// One representative instance per message type, every field non-default so
/// a dropped or reordered field cannot round-trip by accident.
std::vector<wire::WireMessage> sample_messages() {
  payment::ForwardReceipt receipt;
  receipt.pair = 11;
  receipt.conn_index = 3;
  receipt.forwarder = 42;
  receipt.predecessor = 41;
  receipt.successor = 43;
  receipt.mac = 0xDEADBEEFCAFEF00Dull;

  std::vector<wire::WireMessage> msgs;
  msgs.push_back(wire::LegMsg{7, 2, 5, 0x123456789ABCDEF0ull, 1, 10, 11, 4, 2});
  msgs.push_back(wire::AckMsg{7, 2, 0x123456789ABCDEF0ull});
  msgs.push_back(wire::NackMsg{7, 2, 5});
  msgs.push_back(wire::DataMsg{7, 2, 9, 0xFEDCBA9876543210ull, 3, 1});
  msgs.push_back(wire::ClaimMsg{17, 42, receipt});
  msgs.push_back(wire::ClaimReplyMsg{2});
  msgs.push_back(wire::CloseMsg{17});
  msgs.push_back(wire::CloseReplyMsg{1});
  msgs.push_back(wire::OpenSettlementMsg{
      11, 9, 5000, 40, 25, {wire::WirePathRecord{0, 1, 5, {2, 3, 4}},
                            wire::WirePathRecord{1, 1, 5, {6}}}});
  msgs.push_back(wire::OpenReplyMsg{1, 17});
  msgs.push_back(wire::ContractMsg{17, 40001, receipt});
  msgs.push_back(wire::ContractAckMsg{17});
  msgs.push_back(wire::HelloMsg{42});
  msgs.push_back(wire::HelloReplyMsg{9, 0xA5A5A5A5A5A5A5A5ull, 100000});
  msgs.push_back(wire::SetupMsg{11, 3, 1, {1, 2, 3, 4, 5}});
  msgs.push_back(wire::SetupAckMsg{11, 3});
  msgs.push_back(wire::HeartbeatMsg{0x1111222233334444ull});
  msgs.push_back(wire::HeartbeatAckMsg{0x1111222233334444ull});
  msgs.push_back(wire::ByeMsg{40002});
  msgs.push_back(wire::SweepMsg{1});
  msgs.push_back(wire::SweepReplyMsg{13});
  return msgs;
}

std::vector<std::byte> encode_one(const wire::WireMessage& m) {
  std::vector<std::byte> buf;
  const std::size_t n = encode(m, buf);
  EXPECT_EQ(n, buf.size());
  EXPECT_GE(n, kFrameOverhead);
  return buf;
}

std::uint32_t read_le32(const std::vector<std::byte>& b, std::size_t at) {
  return static_cast<std::uint32_t>(b[at]) | (static_cast<std::uint32_t>(b[at + 1]) << 8) |
         (static_cast<std::uint32_t>(b[at + 2]) << 16) |
         (static_cast<std::uint32_t>(b[at + 3]) << 24);
}

std::uint16_t read_le16(const std::vector<std::byte>& b, std::size_t at) {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(b[at]) |
                                    (static_cast<std::uint16_t>(b[at + 1]) << 8));
}

void write_le16(std::vector<std::byte>& b, std::size_t at, std::uint16_t v) {
  b[at] = static_cast<std::byte>(v & 0xFF);
  b[at + 1] = static_cast<std::byte>(v >> 8);
}

void write_le32(std::vector<std::byte>& b, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b[at + i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
}

/// Recompute the trailing CRC after the test patched header/payload bytes —
/// isolates the verdict under test from a cascading kBadCrc.
void fix_crc(std::vector<std::byte>& frame) {
  const std::uint32_t crc =
      crc32(std::span<const std::byte>{frame.data(), frame.size() - 4});
  write_le32(frame, frame.size() - 4, crc);
}

// --- Round-trip bit-exactness ------------------------------------------------

TEST(WireCodec, RoundTripsEveryMessageTypeBitExactly) {
  for (const wire::WireMessage& m : sample_messages()) {
    SCOPED_TRACE("type " + std::to_string(static_cast<int>(wire::type_of(m))));
    const std::vector<std::byte> frame = encode_one(m);

    wire::WireMessage decoded;
    std::size_t consumed = 0;
    ASSERT_EQ(decode(frame, decoded, consumed), DecodeResult::kOk);
    EXPECT_EQ(consumed, frame.size());
    EXPECT_EQ(decoded, m) << "decoded message differs from the encoded one";

    // Re-encoding the decoded message must reproduce the frame byte for
    // byte — the codec is a bijection on its value set.
    const std::vector<std::byte> again = encode_one(decoded);
    EXPECT_EQ(again, frame);
  }
}

TEST(WireCodec, HeaderLayoutIsPinned) {
  const std::vector<std::byte> frame = encode_one(wire::HeartbeatMsg{0xABCDull});
  EXPECT_EQ(read_le32(frame, 0), kWireMagic);
  EXPECT_EQ(read_le16(frame, 4), kWireVersion);
  EXPECT_EQ(read_le16(frame, 6), static_cast<std::uint16_t>(wire::MsgType::kHeartbeat));
  EXPECT_EQ(read_le32(frame, 8), frame.size() - kFrameOverhead);  // payload length
  const std::uint32_t crc =
      crc32(std::span<const std::byte>{frame.data(), frame.size() - 4});
  EXPECT_EQ(read_le32(frame, frame.size() - 4), crc);
}

TEST(WireCodec, EncodeAppendsForStreaming) {
  std::vector<std::byte> buf;
  const std::size_t first = encode(wire::CloseMsg{17}, buf);
  const std::size_t second = encode(wire::SweepMsg{1}, buf);
  ASSERT_EQ(buf.size(), first + second);

  wire::WireMessage m;
  std::size_t consumed = 0;
  ASSERT_EQ(decode(buf, m, consumed), DecodeResult::kOk);
  EXPECT_EQ(consumed, first);
  EXPECT_EQ(m, wire::WireMessage{wire::CloseMsg{17}});
  ASSERT_EQ(decode(std::span<const std::byte>{buf}.subspan(consumed), m, consumed),
            DecodeResult::kOk);
  EXPECT_EQ(consumed, second);
  EXPECT_EQ(m, wire::WireMessage{wire::SweepMsg{1}});
}

// --- Malformed-frame corpus --------------------------------------------------

struct MalformedCase {
  const char* name;
  std::vector<std::byte> bytes;
  DecodeResult want;
  std::size_t want_consumed;  ///< 0 = unresynchronisable
};

std::vector<MalformedCase> malformed_corpus() {
  const std::vector<std::byte> good = [] {
    std::vector<std::byte> b;
    encode(wire::AckMsg{7, 2, 99}, b);
    return b;
  }();

  std::vector<MalformedCase> corpus;

  // Truncated header: fewer bytes than the fixed header.
  corpus.push_back({"truncated-header",
                    {good.begin(), good.begin() + static_cast<long>(kHeaderSize) - 1},
                    DecodeResult::kTruncated, 0});

  // Truncated frame: full header, payload cut short.
  corpus.push_back({"truncated-frame", {good.begin(), good.end() - 5},
                    DecodeResult::kTruncated, 0});

  // Bad magic: the stream is garbage; no resync is possible.
  {
    std::vector<std::byte> b = good;
    b[0] = static_cast<std::byte>(0x00);
    corpus.push_back({"bad-magic", std::move(b), DecodeResult::kBadMagic, 0});
  }

  // Oversize: declared length exceeds max_frame; header untrusted.
  {
    std::vector<std::byte> b = good;
    write_le32(b, 8, static_cast<std::uint32_t>(kDefaultMaxFrame) + 1);
    fix_crc(b);
    corpus.push_back({"oversize", std::move(b), DecodeResult::kOversize, 0});
  }

  // Future version: version gate fires before the CRC check by contract (a
  // future version may change the checksum algorithm, never the header), so
  // the CRC is deliberately NOT fixed up here.
  {
    std::vector<std::byte> b = good;
    write_le16(b, 4, kWireVersion + 1);
    corpus.push_back({"future-version", std::move(b), DecodeResult::kFutureVersion,
                      good.size()});
  }

  // Version 0 was never issued: skipped whole like a future version (it
  // would otherwise decode and re-encode as version 1, other bytes).
  {
    std::vector<std::byte> b = good;
    write_le16(b, 4, 0);
    fix_crc(b);
    corpus.push_back({"version-zero", std::move(b), DecodeResult::kFutureVersion, good.size()});
  }

  // Receipt words travel as u64 but pair/conn_index/ids are u32: a word with
  // high bits set does not fit its field and is rejected, not truncated.
  {
    std::vector<std::byte> b;
    encode(wire::ClaimMsg{17, 42, payment::ForwardReceipt{11, 3, 42, 41, 43, 99}}, b);
    b[kHeaderSize + 8 + 4] = static_cast<std::byte>(0x01);  // receipt.pair, bit 32
    fix_crc(b);
    const std::size_t size = b.size();
    corpus.push_back({"receipt-word-overflow", std::move(b), DecodeResult::kBadLength, size});
  }

  // Bad CRC: one payload bit flipped.
  {
    std::vector<std::byte> b = good;
    b[kHeaderSize] ^= static_cast<std::byte>(0x01);
    corpus.push_back({"bad-crc", std::move(b), DecodeResult::kBadCrc, good.size()});
  }

  // Unknown type at this version (frame otherwise intact).
  {
    std::vector<std::byte> b = good;
    write_le16(b, 6, 999);
    fix_crc(b);
    corpus.push_back({"unknown-type", std::move(b), DecodeResult::kUnknownType, good.size()});
  }

  // Bad length: valid frame whose payload is one byte longer than AckMsg
  // parses — decode must consume the whole declared frame and move on.
  {
    std::vector<std::byte> b = good;
    b.insert(b.end() - 4, static_cast<std::byte>(0));
    write_le32(b, 8, read_le32(b, 8) + 1);
    fix_crc(b);
    corpus.push_back({"bad-length", std::move(b), DecodeResult::kBadLength, good.size() + 1});
  }

  return corpus;
}

TEST(WireCodec, MalformedCorpusIsRejectedWithTheContractedVerdicts) {
  for (const MalformedCase& c : malformed_corpus()) {
    SCOPED_TRACE(c.name);
    wire::WireMessage out;
    std::size_t consumed = 0xFFFF;  // decode must overwrite, even on reject
    EXPECT_EQ(decode(c.bytes, out, consumed), c.want) << to_string(c.want);
    EXPECT_EQ(consumed, c.want_consumed);
  }
}

TEST(WireCodec, RejectPathDoesNotAllocate) {
  // Warm-up pass (also pre-faults any lazy allocator state), then the same
  // corpus decoded inside a counted window. No gtest assertions inside the
  // window — they allocate.
  const std::vector<MalformedCase> corpus = malformed_corpus();
  wire::WireMessage out;
  std::size_t consumed = 0;
  for (const MalformedCase& c : corpus) (void)decode(c.bytes, out, consumed);

  g_allocations.store(0);
  g_counting.store(true);
  for (const MalformedCase& c : corpus) (void)decode(c.bytes, out, consumed);
  g_counting.store(false);

  EXPECT_EQ(g_allocations.load(), 0u) << "rejecting a malformed frame heap-allocated";
}

TEST(WireCodec, SkipsDamagedFrameAndDecodesTheNext) {
  // A skippable verdict (kBadCrc) followed by an intact frame: advancing by
  // `consumed` must land exactly on the next frame.
  std::vector<std::byte> buf;
  encode(wire::NackMsg{7, 2, 5}, buf);
  buf[kHeaderSize] ^= static_cast<std::byte>(0x01);
  const std::size_t first = buf.size();
  encode(wire::HeartbeatAckMsg{77}, buf);

  wire::WireMessage m;
  std::size_t consumed = 0;
  ASSERT_EQ(decode(buf, m, consumed), DecodeResult::kBadCrc);
  ASSERT_EQ(consumed, first);
  ASSERT_EQ(decode(std::span<const std::byte>{buf}.subspan(consumed), m, consumed),
            DecodeResult::kOk);
  EXPECT_EQ(m, wire::WireMessage{wire::HeartbeatAckMsg{77}});
}

TEST(WireCodec, EmptyBufferIsTruncatedNotAnError) {
  wire::WireMessage m;
  std::size_t consumed = 7;
  EXPECT_EQ(decode(std::span<const std::byte>{}, m, consumed), DecodeResult::kTruncated);
  EXPECT_EQ(consumed, 0u);
}

TEST(WireCodec, SetupPathBoundIsEnforced) {
  // A SetupMsg whose path exceeds kMaxWirePath must not round-trip: the
  // decoder rejects the frame (kBadLength) instead of reserving unbounded
  // memory off a hostile count field.
  wire::SetupMsg big;
  big.pair = 1;
  big.conn_index = 0;
  big.hop = 0;
  big.path.assign(wire::kMaxWirePath + 1, 3);
  std::vector<std::byte> buf;
  encode(wire::WireMessage{big}, buf);

  wire::WireMessage m;
  std::size_t consumed = 0;
  EXPECT_EQ(decode(buf, m, consumed), DecodeResult::kBadLength);
  EXPECT_EQ(consumed, buf.size());
}

// Pin the CRC polynomial/reflection against the canonical check value,
// CRC-32("123456789") = 0xCBF43926, in constant evaluation too: nine bytes
// take one eight-byte slice and one tail byte.
constexpr std::array<std::byte, 9> kCrcCheckInput = {
    std::byte{'1'}, std::byte{'2'}, std::byte{'3'}, std::byte{'4'}, std::byte{'5'},
    std::byte{'6'}, std::byte{'7'}, std::byte{'8'}, std::byte{'9'}};
static_assert(crc32(std::span<const std::byte>{kCrcCheckInput}) == 0xCBF43926u);

TEST(WireCodec, CrcMatchesTheIeeeReference) {
  const char* s = "123456789";
  std::vector<std::byte> bytes(9);
  std::memcpy(bytes.data(), s, 9);
  EXPECT_EQ(crc32(std::span<const std::byte>{bytes}), 0xCBF43926u);
}

// --- Byte identity with the byte-at-a-time encoder ---------------------------
//
// A frozen copy of the original encoder: one push_back per byte, the payload
// length backpatched, and a one-table bytewise CRC. The production encoder
// sizes the frame first, writes fixed-width fields in place and folds the CRC
// eight bytes at a time; every frame it emits must equal this one's.

std::uint32_t bytewise_crc32(std::span<const std::byte> data) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t state = 0xFFFFFFFFu;
  for (const std::byte b : data) {
    state = table[(state ^ static_cast<std::uint32_t>(b)) & 0xFFu] ^ (state >> 8);
  }
  return state ^ 0xFFFFFFFFu;
}

class LegacyWriter {
 public:
  explicit LegacyWriter(std::vector<std::byte>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i64(std::int64_t v) { put(static_cast<std::uint64_t>(v)); }

  void node_list(const std::vector<net::NodeId>& nodes) {
    u32(static_cast<std::uint32_t>(nodes.size()));
    for (const net::NodeId n : nodes) u32(n);
  }

  void receipt(const payment::ForwardReceipt& r) {
    for (const auto w : payment::receipt_words(r)) u64(w);
    u64(r.mac);
  }

 private:
  template <typename T>
  void put(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
    }
  }

  std::vector<std::byte>& out_;
};

void legacy_payload(LegacyWriter& w, const wire::LegMsg& m) {
  w.u32(m.pair);
  w.u32(m.conn_index);
  w.u32(m.attempt);
  w.u64(m.tid);
  w.u8(m.kind);
  w.u32(m.holder);
  w.u32(m.next);
  w.u32(m.forwarders);
  w.u32(m.index);
}
void legacy_payload(LegacyWriter& w, const wire::AckMsg& m) {
  w.u32(m.pair);
  w.u32(m.conn_index);
  w.u64(m.tid);
}
void legacy_payload(LegacyWriter& w, const wire::NackMsg& m) {
  w.u32(m.pair);
  w.u32(m.conn_index);
  w.u32(m.attempt);
}
void legacy_payload(LegacyWriter& w, const wire::DataMsg& m) {
  w.u32(m.pair);
  w.u32(m.conn_index);
  w.u32(m.gen);
  w.u64(m.seq);
  w.u32(m.index);
  w.u8(m.echo);
}
void legacy_payload(LegacyWriter& w, const wire::ClaimMsg& m) {
  w.u32(m.sid);
  w.u32(m.claimant);
  w.receipt(m.receipt);
}
void legacy_payload(LegacyWriter& w, const wire::ClaimReplyMsg& m) { w.u8(m.result); }
void legacy_payload(LegacyWriter& w, const wire::CloseMsg& m) { w.u32(m.sid); }
void legacy_payload(LegacyWriter& w, const wire::CloseReplyMsg& m) { w.u8(m.ok); }
void legacy_payload(LegacyWriter& w, const wire::OpenSettlementMsg& m) {
  w.u32(m.pair);
  w.u32(m.initiator_account);
  w.i64(m.escrow_milli);
  w.i64(m.forwarding_benefit_milli);
  w.i64(m.routing_benefit_milli);
  w.u32(static_cast<std::uint32_t>(m.records.size()));
  for (const wire::WirePathRecord& rec : m.records) {
    w.u32(rec.conn_index);
    w.u32(rec.entry);
    w.u32(rec.exit);
    w.node_list(rec.forwarders);
  }
}
void legacy_payload(LegacyWriter& w, const wire::OpenReplyMsg& m) {
  w.u8(m.ok);
  w.u32(m.sid);
}
void legacy_payload(LegacyWriter& w, const wire::ContractMsg& m) {
  w.u32(m.sid);
  w.u16(m.bank_port);
  w.receipt(m.receipt);
}
void legacy_payload(LegacyWriter& w, const wire::ContractAckMsg& m) { w.u32(m.sid); }
void legacy_payload(LegacyWriter& w, const wire::HelloMsg& m) { w.u32(m.node); }
void legacy_payload(LegacyWriter& w, const wire::HelloReplyMsg& m) {
  w.u32(m.account);
  w.u64(m.mac_key);
  w.i64(m.balance_milli);
}
void legacy_payload(LegacyWriter& w, const wire::SetupMsg& m) {
  w.u32(m.pair);
  w.u32(m.conn_index);
  w.u32(m.hop);
  w.node_list(m.path);
}
void legacy_payload(LegacyWriter& w, const wire::SetupAckMsg& m) {
  w.u32(m.pair);
  w.u32(m.conn_index);
}
void legacy_payload(LegacyWriter& w, const wire::HeartbeatMsg& m) { w.u64(m.nonce); }
void legacy_payload(LegacyWriter& w, const wire::HeartbeatAckMsg& m) { w.u64(m.nonce); }
void legacy_payload(LegacyWriter& w, const wire::ByeMsg& m) { w.u16(m.port); }
void legacy_payload(LegacyWriter& w, const wire::SweepMsg& m) { w.u8(m.write_report); }
void legacy_payload(LegacyWriter& w, const wire::SweepReplyMsg& m) { w.u32(m.terminalised); }

std::vector<std::byte> legacy_encode(const wire::WireMessage& msg) {
  std::vector<std::byte> out;
  LegacyWriter w(out);
  w.u32(kWireMagic);
  w.u16(kWireVersion);
  w.u16(static_cast<std::uint16_t>(wire::type_of(msg)));
  w.u32(0);  // length backpatched below
  std::visit([&w](const auto& m) { legacy_payload(w, m); }, msg);
  const std::size_t payload_len = out.size() - kHeaderSize;
  write_le32(out, 8, static_cast<std::uint32_t>(payload_len));
  w.u32(bytewise_crc32(out));
  return out;
}

// --- Seeded random messages ----------------------------------------------------

using sim::rng::Stream;

template <typename T>
T draw(Stream& s) {
  return static_cast<T>(s.next_u64());
}

std::vector<net::NodeId> draw_nodes(Stream& s, std::size_t count) {
  std::vector<net::NodeId> nodes(count);
  for (net::NodeId& n : nodes) n = draw<net::NodeId>(s);
  return nodes;
}

payment::ForwardReceipt draw_receipt(Stream& s) {
  payment::ForwardReceipt r;
  r.pair = draw<net::PairId>(s);
  r.conn_index = draw<std::uint32_t>(s);
  r.forwarder = draw<net::NodeId>(s);
  r.predecessor = draw<net::NodeId>(s);
  r.successor = draw<net::NodeId>(s);
  r.mac = draw<std::uint64_t>(s);
  return r;
}

void randomize(Stream& s, wire::LegMsg& m) {
  m = {draw<std::uint32_t>(s), draw<std::uint32_t>(s), draw<std::uint32_t>(s),
       draw<std::uint64_t>(s), draw<std::uint8_t>(s),  draw<std::uint32_t>(s),
       draw<std::uint32_t>(s), draw<std::uint32_t>(s), draw<std::uint32_t>(s)};
}
void randomize(Stream& s, wire::AckMsg& m) {
  m = {draw<std::uint32_t>(s), draw<std::uint32_t>(s), draw<std::uint64_t>(s)};
}
void randomize(Stream& s, wire::NackMsg& m) {
  m = {draw<std::uint32_t>(s), draw<std::uint32_t>(s), draw<std::uint32_t>(s)};
}
void randomize(Stream& s, wire::DataMsg& m) {
  m = {draw<std::uint32_t>(s), draw<std::uint32_t>(s), draw<std::uint32_t>(s),
       draw<std::uint64_t>(s), draw<std::uint32_t>(s), draw<std::uint8_t>(s)};
}
void randomize(Stream& s, wire::ClaimMsg& m) {
  m = {draw<std::uint32_t>(s), draw<std::uint32_t>(s), draw_receipt(s)};
}
void randomize(Stream& s, wire::ClaimReplyMsg& m) { m = {draw<std::uint8_t>(s)}; }
void randomize(Stream& s, wire::CloseMsg& m) { m = {draw<std::uint32_t>(s)}; }
void randomize(Stream& s, wire::CloseReplyMsg& m) { m = {draw<std::uint8_t>(s)}; }
void randomize(Stream& s, wire::OpenSettlementMsg& m) {
  m = {draw<std::uint32_t>(s), draw<std::uint32_t>(s), draw<std::int64_t>(s),
       draw<std::int64_t>(s),  draw<std::int64_t>(s),  {}};
  m.records.resize(s.below(5));  // 0..4 records, several forwarders each
  for (wire::WirePathRecord& rec : m.records) {
    rec = {draw<std::uint32_t>(s), draw<net::NodeId>(s), draw<net::NodeId>(s),
           draw_nodes(s, s.below(wire::kMaxWirePath + 1))};
  }
}
void randomize(Stream& s, wire::OpenReplyMsg& m) {
  m = {draw<std::uint8_t>(s), draw<std::uint32_t>(s)};
}
void randomize(Stream& s, wire::ContractMsg& m) {
  m = {draw<std::uint32_t>(s), draw<std::uint16_t>(s), draw_receipt(s)};
}
void randomize(Stream& s, wire::ContractAckMsg& m) { m = {draw<std::uint32_t>(s)}; }
void randomize(Stream& s, wire::HelloMsg& m) { m = {draw<net::NodeId>(s)}; }
void randomize(Stream& s, wire::HelloReplyMsg& m) {
  m = {draw<std::uint32_t>(s), draw<std::uint64_t>(s), draw<std::int64_t>(s)};
}
void randomize(Stream& s, wire::SetupMsg& m) {
  // Every path length the decoder accepts, kMaxWirePath included.
  m = {draw<std::uint32_t>(s), draw<std::uint32_t>(s), draw<std::uint32_t>(s),
       draw_nodes(s, s.below(wire::kMaxWirePath + 1))};
}
void randomize(Stream& s, wire::SetupAckMsg& m) {
  m = {draw<std::uint32_t>(s), draw<std::uint32_t>(s)};
}
void randomize(Stream& s, wire::HeartbeatMsg& m) { m = {draw<std::uint64_t>(s)}; }
void randomize(Stream& s, wire::HeartbeatAckMsg& m) { m = {draw<std::uint64_t>(s)}; }
void randomize(Stream& s, wire::ByeMsg& m) { m = {draw<std::uint16_t>(s)}; }
void randomize(Stream& s, wire::SweepMsg& m) { m = {draw<std::uint8_t>(s)}; }
void randomize(Stream& s, wire::SweepReplyMsg& m) { m = {draw<std::uint32_t>(s)}; }

constexpr std::size_t kMessageTypes = std::variant_size_v<wire::WireMessage>;

/// A random message of the variant's `index`-th alternative.
wire::WireMessage random_message(Stream& s, std::size_t index) {
  wire::WireMessage m;
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    ((I == index ? (void)m.emplace<I>() : void()), ...);
  }(std::make_index_sequence<kMessageTypes>{});
  std::visit([&s](auto& alt) { randomize(s, alt); }, m);
  return m;
}

TEST(WireCodec, FramesAreByteIdenticalToTheByteAtATimeEncoder) {
  Stream rng(0xB17E5EEDull);
  for (std::size_t type = 0; type < kMessageTypes; ++type) {
    for (int i = 0; i < 200; ++i) {
      const wire::WireMessage m = random_message(rng, type);
      SCOPED_TRACE("type " + std::to_string(static_cast<int>(wire::type_of(m))));
      ASSERT_EQ(encode_one(m), legacy_encode(m));
    }
  }

  // The corners the random draws may miss: the longest setup path, several
  // multi-hop settlement records, a receipt with every bit set.
  wire::SetupMsg longest{1, 2, 3, draw_nodes(rng, wire::kMaxWirePath)};
  EXPECT_EQ(encode_one(longest), legacy_encode(longest));
  wire::OpenSettlementMsg multi{5, 6, -7, 8, 9, {}};
  for (std::uint32_t c = 0; c < 8; ++c) {
    multi.records.push_back({c, 1, 2, draw_nodes(rng, 1 + c % wire::kMaxWirePath)});
  }
  EXPECT_EQ(encode_one(multi), legacy_encode(multi));
  payment::ForwardReceipt ones{~0u, ~0u, ~0u, ~0u, ~0u, ~0ull};
  EXPECT_EQ(encode_one(wire::ClaimMsg{~0u, ~0u, ones}),
            legacy_encode(wire::ClaimMsg{~0u, ~0u, ones}));
  EXPECT_EQ(encode_one(wire::ContractMsg{~0u, 0xFFFF, ones}),
            legacy_encode(wire::ContractMsg{~0u, 0xFFFF, ones}));

  // Appending after existing bytes leaves them alone and writes the same frame.
  std::vector<std::byte> buf = legacy_encode(longest);
  const std::size_t first = buf.size();
  encode(wire::WireMessage{multi}, buf);
  std::vector<std::byte> want = legacy_encode(longest);
  const std::vector<std::byte> second = legacy_encode(multi);
  want.insert(want.end(), second.begin(), second.end());
  EXPECT_EQ(buf, want);
  EXPECT_EQ(buf.size() - first, second.size());
}

TEST(WireCodec, SlicedCrcMatchesBytewiseCrc) {
  Stream rng(0xC4C32ull);
  std::vector<std::byte> bytes(300 + 8);
  for (std::byte& b : bytes) b = draw<std::byte>(rng);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::span<const std::byte> data{bytes.data() + offset, len};
      ASSERT_EQ(crc32(data), bytewise_crc32(data)) << "offset " << offset << " len " << len;
    }
  }
  // A running CRC split anywhere equals the one-shot CRC.
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t len = rng.below(301);
    const std::size_t split = rng.below(len + 1);
    const std::span<const std::byte> data{bytes.data() + rng.below(8), len};
    const std::uint32_t state = crc32_update(crc32_update(crc32_init(), data.first(split)),
                                             data.subspan(split));
    ASSERT_EQ(crc32_final(state), bytewise_crc32(data)) << "len " << len << " split " << split;
  }
}

// --- Seeded mutation fuzzer -----------------------------------------------------

/// The verdict wire_codec.hpp contracts for `frame`, derived from the header
/// alone; nullopt where only the payload parser can tell kOk from kBadLength.
std::optional<DecodeResult> contracted_verdict(const std::vector<std::byte>& frame) {
  if (frame.size() < kHeaderSize) return DecodeResult::kTruncated;
  if (read_le32(frame, 0) != kWireMagic) return DecodeResult::kBadMagic;
  const std::size_t length = read_le32(frame, 8);
  if (length + kFrameOverhead > kDefaultMaxFrame) return DecodeResult::kOversize;
  if (frame.size() < length + kFrameOverhead) return DecodeResult::kTruncated;
  if (read_le16(frame, 4) != kWireVersion) return DecodeResult::kFutureVersion;
  if (read_le32(frame, kHeaderSize + length) !=
      bytewise_crc32(std::span<const std::byte>{frame.data(), kHeaderSize + length})) {
    return DecodeResult::kBadCrc;
  }
  const std::uint16_t type = read_le16(frame, 6);
  if (type == 0 || type > kMessageTypes) return DecodeResult::kUnknownType;
  return std::nullopt;
}

/// Whether a verdict identified a complete frame (non-zero `consumed`).
bool skippable(DecodeResult r) {
  return r != DecodeResult::kTruncated && r != DecodeResult::kBadMagic &&
         r != DecodeResult::kOversize;
}

void mutate(Stream& rng, std::vector<std::byte>& frame,
            const std::vector<std::vector<std::byte>>& seeds) {
  switch (rng.below(4)) {
    case 0: {  // flip one to four bits
      if (frame.empty()) return;
      for (std::uint64_t n = 1 + rng.below(4); n > 0; --n) {
        frame[rng.below(frame.size())] ^= static_cast<std::byte>(1u << rng.below(8));
      }
      return;
    }
    case 1:  // truncate
      frame.resize(rng.below(frame.size() + 1));
      return;
    case 2: {  // splice: a prefix of this frame, a suffix of another
      const std::vector<std::byte>& other = seeds[rng.below(seeds.size())];
      frame.resize(rng.below(frame.size() + 1));
      frame.insert(frame.end(), other.begin() + static_cast<long>(rng.below(other.size() + 1)),
                   other.end());
      return;
    }
    default: {  // edit the length field
      if (frame.size() < kHeaderSize) return;
      const std::uint32_t length = read_le32(frame, 8);
      switch (rng.below(3)) {
        case 0: write_le32(frame, 8, draw<std::uint32_t>(rng)); break;
        case 1: write_le32(frame, 8, length + static_cast<std::uint32_t>(rng.below(17)) - 8); break;
        default: write_le32(frame, 8, static_cast<std::uint32_t>(kDefaultMaxFrame - 16 + rng.below(3)));
      }
      return;
    }
  }
}

TEST(WireCodecFuzz, MutatedFramesGetTheContractedVerdicts) {
  Stream rng(0xF022C0DEull);
  std::vector<std::vector<std::byte>> seeds;
  for (std::size_t type = 0; type < kMessageTypes; ++type) {
    for (int i = 0; i < 4; ++i) seeds.push_back(encode_one(random_message(rng, type)));
  }

  // Bounded: 100 000 seeded iterations take about 0.1 s on one core.
  constexpr int kIterations = 100000;
  std::array<int, 8> verdicts{};
  const wire::WireMessage sentinel = wire::HeartbeatMsg{0x5E5E5E5E5E5E5E5Eull};
  for (int it = 0; it < kIterations; ++it) {
    std::vector<std::byte> frame = seeds[rng.below(seeds.size())];
    for (std::uint64_t n = 1 + rng.below(3); n > 0; --n) mutate(rng, frame, seeds);
    // Half the time re-seal the CRC wherever the (possibly edited) header
    // says it sits, so mutations reach the type gate and the payload parsers.
    if (frame.size() >= kHeaderSize && rng.below(2) == 0) {
      const std::size_t length = read_le32(frame, 8);
      if (length + kFrameOverhead <= frame.size()) {
        write_le32(frame, kHeaderSize + length,
                   bytewise_crc32(std::span<const std::byte>{frame.data(), kHeaderSize + length}));
      }
    }

    wire::WireMessage out = sentinel;
    std::size_t consumed = 0xFFFF;
    const DecodeResult r = decode(frame, out, consumed);
    SCOPED_TRACE("iteration " + std::to_string(it) + " verdict " + to_string(r));
    ASSERT_LE(static_cast<int>(r), static_cast<int>(DecodeResult::kBadLength));
    ++verdicts[static_cast<std::size_t>(r)];

    const std::optional<DecodeResult> want = contracted_verdict(frame);
    if (want) {
      ASSERT_EQ(r, *want);
    } else {
      ASSERT_TRUE(r == DecodeResult::kOk || r == DecodeResult::kBadLength);
    }
    if (skippable(r)) {
      ASSERT_EQ(consumed, read_le32(frame, 8) + kFrameOverhead);
      ASSERT_LE(consumed, frame.size());
    } else {
      ASSERT_EQ(consumed, 0u);
    }
    if (r == DecodeResult::kOk) {
      const std::vector<std::byte> again = encode_one(out);
      ASSERT_EQ(again, std::vector<std::byte>(frame.begin(),
                                              frame.begin() + static_cast<long>(consumed)));
    } else {
      ASSERT_EQ(out, sentinel) << "a rejected frame wrote the output message";
    }
  }

  // Not vacuous: every verdict was reached.
  for (std::size_t v = 0; v < verdicts.size(); ++v) {
    EXPECT_GT(verdicts[v], 0) << to_string(static_cast<DecodeResult>(v));
  }
}

// --- SimTransport steady state ------------------------------------------------------

TEST(SimTransportAllocation, FixedSizeRoundTripsDoNotAllocateAfterWarmUp) {
  sim::Simulator simulator;
  net::OverlayConfig cfg;
  cfg.node_count = 8;
  cfg.degree = 3;
  net::Overlay overlay(cfg, simulator, Stream(3));
  SimTransport transport(simulator, overlay, nullptr);
  std::uint64_t delivered = 0;
  std::uint64_t banked = 0;
  transport.set_bank_handler([&banked](const wire::WireMessage&) { ++banked; });

  // Every message type whose size does not depend on its contents.
  std::vector<wire::WireMessage> fixed;
  for (const wire::WireMessage& m : sample_messages()) {
    if (!std::holds_alternative<wire::SetupMsg>(m) &&
        !std::holds_alternative<wire::OpenSettlementMsg>(m)) {
      fixed.push_back(m);
    }
  }
  ASSERT_EQ(fixed.size(), kMessageTypes - 2);
  const auto round = [&] {
    for (const wire::WireMessage& m : fixed) {
      transport.send(1, 2, m, [&delivered] { ++delivered; });
      simulator.run_to_completion();
      transport.post_to_bank(m);
    }
  };

  round();  // warm-up: the scratch buffer and the event queue reach capacity
  g_allocations.store(0);
  g_counting.store(true);
  for (int i = 0; i < 10; ++i) round();
  g_counting.store(false);

  EXPECT_EQ(g_allocations.load(), 0u) << "a steady-state SimTransport round-trip allocated";
  EXPECT_EQ(delivered, 11 * fixed.size());
  EXPECT_EQ(banked, 11 * fixed.size());
  EXPECT_EQ(transport.counters().frames_sent, 22 * fixed.size());
}

}  // namespace
