#include "transport/wire_codec.hpp"

#include <array>
#include <bit>
#include <concepts>
#include <cstring>
#include <type_traits>
#include <utility>

#include "transport/crc32.hpp"

namespace p2panon::transport {

namespace {

using namespace wire;

// --- Little-endian fixed-width stores and loads -----------------------------

template <std::unsigned_integral T>
void store_le(std::byte* p, T v) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) p[i] = static_cast<std::byte>(v >> (8 * i));
  }
}

template <std::unsigned_integral T>
[[nodiscard]] T load_le(const std::byte* p) noexcept {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
  }
  return v;
}

// --- Per-type payload layouts ------------------------------------------------
//
// Each message lists its fields once, in wire order; the same list drives the
// sizing pass, the in-place writer and the reader. An integer travels at its
// declared width (a signed one as its two's-complement bits); a node list as
// a u32 count plus u32 ids; a receipt as receipt_words() plus the MAC; a
// record list as a u32 count plus each record's own fields.

template <typename M, typename T>
concept Of = std::same_as<std::remove_const_t<M>, T>;

template <typename F, Of<LegMsg> M>
void fields(F& f, M& m) {
  f(m.pair, m.conn_index, m.attempt, m.tid, m.kind, m.holder, m.next, m.forwarders, m.index);
}
template <typename F, Of<AckMsg> M>
void fields(F& f, M& m) { f(m.pair, m.conn_index, m.tid); }
template <typename F, Of<NackMsg> M>
void fields(F& f, M& m) { f(m.pair, m.conn_index, m.attempt); }
template <typename F, Of<DataMsg> M>
void fields(F& f, M& m) { f(m.pair, m.conn_index, m.gen, m.seq, m.index, m.echo); }
template <typename F, Of<ClaimMsg> M>
void fields(F& f, M& m) { f(m.sid, m.claimant, m.receipt); }
template <typename F, Of<ClaimReplyMsg> M>
void fields(F& f, M& m) { f(m.result); }
template <typename F, Of<CloseMsg> M>
void fields(F& f, M& m) { f(m.sid); }
template <typename F, Of<CloseReplyMsg> M>
void fields(F& f, M& m) { f(m.ok); }
template <typename F, Of<WirePathRecord> M>
void fields(F& f, M& m) { f(m.conn_index, m.entry, m.exit, m.forwarders); }
template <typename F, Of<OpenSettlementMsg> M>
void fields(F& f, M& m) {
  f(m.pair, m.initiator_account, m.escrow_milli, m.forwarding_benefit_milli,
    m.routing_benefit_milli, m.records);
}
template <typename F, Of<OpenReplyMsg> M>
void fields(F& f, M& m) { f(m.ok, m.sid); }
template <typename F, Of<ContractMsg> M>
void fields(F& f, M& m) { f(m.sid, m.bank_port, m.receipt); }
template <typename F, Of<ContractAckMsg> M>
void fields(F& f, M& m) { f(m.sid); }
template <typename F, Of<HelloMsg> M>
void fields(F& f, M& m) { f(m.node); }
template <typename F, Of<HelloReplyMsg> M>
void fields(F& f, M& m) { f(m.account, m.mac_key, m.balance_milli); }
template <typename F, Of<SetupMsg> M>
void fields(F& f, M& m) { f(m.pair, m.conn_index, m.hop, m.path); }
template <typename F, Of<SetupAckMsg> M>
void fields(F& f, M& m) { f(m.pair, m.conn_index); }
template <typename F, Of<HeartbeatMsg> M>
void fields(F& f, M& m) { f(m.nonce); }
template <typename F, Of<HeartbeatAckMsg> M>
void fields(F& f, M& m) { f(m.nonce); }
template <typename F, Of<ByeMsg> M>
void fields(F& f, M& m) { f(m.port); }
template <typename F, Of<SweepMsg> M>
void fields(F& f, M& m) { f(m.write_report); }
template <typename F, Of<SweepReplyMsg> M>
void fields(F& f, M& m) { f(m.terminalised); }

/// Bounds a decoded message must meet beyond its field grammar.
template <typename T>
bool within_bounds(const T&) { return true; }
bool within_bounds(const SetupMsg& m) { return m.path.size() <= kMaxWirePath; }

// Decoder sanity bounds on hostile count fields: no giant reservations.
inline constexpr std::uint32_t kMaxNodeList = kMaxWirePath * 4;
inline constexpr std::uint32_t kMaxRecords = 4096;

// --- Encode: a sizing pass, then in-place writes ------------------------------

class Sizer {
 public:
  template <typename... T>
  void operator()(const T&... v) noexcept { (add(v), ...); }
  [[nodiscard]] std::size_t size() const noexcept { return n_; }

 private:
  template <std::integral T>
  void add(T) noexcept { n_ += sizeof(T); }
  void add(const std::vector<net::NodeId>& nodes) noexcept { n_ += 4 + 4 * nodes.size(); }
  void add(const payment::ForwardReceipt&) noexcept { n_ += 8 * (payment::kReceiptWordCount + 1); }
  void add(const std::vector<WirePathRecord>& records) noexcept {
    n_ += 4;
    for (const WirePathRecord& rec : records) fields(*this, rec);
  }

  std::size_t n_ = 0;
};

/// Writes into storage the sizing pass already reserved: no capacity checks,
/// one fixed-width store per field.
class Writer {
 public:
  explicit Writer(std::byte* p) noexcept : p_(p) {}
  template <typename... T>
  void operator()(const T&... v) noexcept { (put(v), ...); }

 private:
  template <std::integral T>
  void put(T v) noexcept {
    store_le(p_, static_cast<std::make_unsigned_t<T>>(v));
    p_ += sizeof(T);
  }
  void put(const std::vector<net::NodeId>& nodes) noexcept {
    put(static_cast<std::uint32_t>(nodes.size()));
    for (const net::NodeId n : nodes) put(n);
  }
  void put(const payment::ForwardReceipt& r) noexcept {
    // The canonical enumeration (payment/receipt.hpp) IS the wire layout.
    for (const auto w : payment::receipt_words(r)) put(w);
    put(r.mac);
  }
  void put(const std::vector<WirePathRecord>& records) noexcept {
    put(static_cast<std::uint32_t>(records.size()));
    for (const WirePathRecord& rec : records) fields(*this, rec);
  }

  std::byte* p_;
};

template <typename T>
std::size_t encode_frame(const T& m, std::vector<std::byte>& out) {
  Sizer sizer;
  fields(sizer, m);
  const std::size_t payload = sizer.size();
  const std::size_t start = out.size();
  out.resize(start + kFrameOverhead + payload);  // appends: streaming callers batch frames
  std::byte* const frame = out.data() + start;
  Writer w(frame);
  w(kWireMagic, kWireVersion, static_cast<std::uint16_t>(T::kType),
    static_cast<std::uint32_t>(payload));
  fields(w, m);
  w(crc32(std::span<const std::byte>(frame, kHeaderSize + payload)));
  return kFrameOverhead + payload;
}

// --- Decode: fixed-width reads, one parser per type tag ------------------------

class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) noexcept
      : p_(data.data()), end_(data.data() + data.size()) {}

  /// Read each field in order; after the first short read every later one
  /// fails too (the message is discarded, so field values no longer matter).
  template <typename... T>
  void operator()(T&... v) { (get(v), ...); }
  [[nodiscard]] bool exhausted() const noexcept { return ok_ && p_ == end_; }

 private:
  [[nodiscard]] std::size_t left() const noexcept { return static_cast<std::size_t>(end_ - p_); }
  void fail() noexcept {
    ok_ = false;
    p_ = end_;
  }

  template <std::integral T>
  void get(T& v) noexcept {
    using U = std::make_unsigned_t<T>;
    if (left() < sizeof(U)) return fail();
    v = static_cast<T>(load_le<U>(p_));
    p_ += sizeof(U);
  }
  void get(std::vector<net::NodeId>& nodes) {
    std::uint32_t count = 0;
    get(count);
    if (!ok_ || count > kMaxNodeList || left() / 4 < count) return fail();  // before resizing
    nodes.resize(count);
    for (net::NodeId& n : nodes) get(n);
  }
  void get(payment::ForwardReceipt& r) noexcept {
    std::array<payment::crypto::u64, payment::kReceiptWordCount> words{};
    payment::crypto::u64 mac = 0;
    for (auto& w : words) get(w);
    get(mac);
    r = payment::receipt_from_words(words, mac);
    // Words travel as u64 but several fields are narrower: a word that does
    // not fit its field would decode to a receipt that re-encodes to other
    // bytes, so it is malformed rather than silently truncated.
    if (payment::receipt_words(r) != words) fail();
  }
  void get(std::vector<WirePathRecord>& records) {
    std::uint32_t count = 0;
    get(count);
    // A record is at least four u32s (ids plus an empty node list).
    if (!ok_ || count > kMaxRecords || left() / 16 < count) return fail();
    records.reserve(count);
    for (std::uint32_t i = 0; i < count && ok_; ++i) fields(*this, records.emplace_back());
  }

  const std::byte* p_;
  const std::byte* end_;
  bool ok_ = true;
};

/// Parse a payload into a fresh T; `out` is assigned only on success.
template <typename T>
bool parse_into(std::span<const std::byte> payload, WireMessage& out) {
  Reader r(payload);
  T msg;
  fields(r, msg);
  if (!r.exhausted() || !within_bounds(msg)) return false;
  out = std::move(msg);
  return true;
}

using ParseFn = bool (*)(std::span<const std::byte>, WireMessage&);

/// Parser per MsgType value; slot 0 and any value past the last type are
/// unknown. Built from the variant's alternatives, so a new message type is
/// decodable as soon as it is added to WireMessage with its field list. The
/// tags run 1..N: one past N does not compile, and a repeated one leaves a
/// type undecodable, which the every-type round-trip test catches.
template <std::size_t... I>
consteval auto make_parsers(std::index_sequence<I...>) {
  std::array<ParseFn, sizeof...(I) + 1> table{};
  ((table[static_cast<std::size_t>(std::variant_alternative_t<I, WireMessage>::kType)] =
        &parse_into<std::variant_alternative_t<I, WireMessage>>),
   ...);
  return table;
}
constexpr auto kParsers =
    make_parsers(std::make_index_sequence<std::variant_size_v<WireMessage>>{});

}  // namespace

const char* to_string(DecodeResult r) noexcept {
  switch (r) {
    case DecodeResult::kOk: return "ok";
    case DecodeResult::kTruncated: return "truncated";
    case DecodeResult::kBadMagic: return "bad-magic";
    case DecodeResult::kOversize: return "oversize";
    case DecodeResult::kFutureVersion: return "future-version";
    case DecodeResult::kBadCrc: return "bad-crc";
    case DecodeResult::kUnknownType: return "unknown-type";
    case DecodeResult::kBadLength: return "bad-length";
  }
  return "?";
}

std::size_t encode(const wire::WireMessage& msg, std::vector<std::byte>& out) {
  return std::visit([&out](const auto& m) { return encode_frame(m, out); }, msg);
}

DecodeResult decode(std::span<const std::byte> buffer, wire::WireMessage& out,
                    std::size_t& consumed, std::size_t max_frame) {
  consumed = 0;
  if (buffer.size() < kHeaderSize) return DecodeResult::kTruncated;
  const std::byte* const b = buffer.data();
  if (load_le<std::uint32_t>(b) != kWireMagic) return DecodeResult::kBadMagic;
  const auto version = load_le<std::uint16_t>(b + 4);
  const auto type = load_le<std::uint16_t>(b + 6);
  const auto length = load_le<std::uint32_t>(b + 8);
  if (static_cast<std::size_t>(length) + kFrameOverhead > max_frame) {
    return DecodeResult::kOversize;
  }
  const std::size_t frame_size = kHeaderSize + length + 4;
  if (buffer.size() < frame_size) return DecodeResult::kTruncated;
  // Every verdict from here on identified a complete frame.
  consumed = frame_size;
  // Version gates before the CRC: a future version may change the checksum
  // algorithm, but never the header layout (that is the versioning contract),
  // so the frame is skippable whole either way. Version 1 is the first, so a
  // 0 is no version at all and is skipped the same way.
  if (version != kWireVersion) return DecodeResult::kFutureVersion;
  if (load_le<std::uint32_t>(b + kHeaderSize + length) !=
      crc32(buffer.subspan(0, kHeaderSize + length))) {
    return DecodeResult::kBadCrc;
  }
  const ParseFn parse = type < kParsers.size() ? kParsers[type] : nullptr;
  if (parse == nullptr) return DecodeResult::kUnknownType;
  return parse(buffer.subspan(kHeaderSize, length), out) ? DecodeResult::kOk
                                                        : DecodeResult::kBadLength;
}

}  // namespace p2panon::transport
