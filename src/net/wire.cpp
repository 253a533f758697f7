#include "net/wire.hpp"

namespace bstc::net {

const char* frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kWelcome: return "welcome";
    case FrameType::kTile: return "tile";
    case FrameType::kCTile: return "ctile";
    case FrameType::kCDone: return "cdone";
    case FrameType::kGather: return "gather";
    case FrameType::kGatherDone: return "gatherdone";
    case FrameType::kBarrier: return "barrier";
    case FrameType::kSummary: return "summary";
    case FrameType::kVerdict: return "verdict";
    case FrameType::kShutdown: return "shutdown";
    case FrameType::kClockProbe: return "clockprobe";
    case FrameType::kClockReply: return "clockreply";
    case FrameType::kTrace: return "trace";
    case FrameType::kRequest: return "request";
    case FrameType::kResponse: return "response";
    case FrameType::kServiceCtl: return "servicectl";
    case FrameType::kBcast: return "bcast";
    case FrameType::kBcastFwd: return "bcastfwd";
  }
  return "unknown";
}

std::uint64_t wire_checksum(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

bool valid_frame_type(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(FrameType::kHello) &&
         raw <= static_cast<std::uint8_t>(FrameType::kBcastFwd);
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  BSTC_REQUIRE(frame.payload.size() <= kMaxPayloadBytes,
               "wire: payload exceeds the frame size limit");
  const auto len = static_cast<std::uint32_t>(frame.payload.size());
  std::vector<std::uint8_t> out;
  out.reserve(kWireHeaderBytes + frame.payload.size() + kWireChecksumBytes);
  const std::uint32_t magic = kWireMagic;
  out.resize(kWireHeaderBytes);
  std::memcpy(out.data(), &magic, 4);
  out[4] = kWireVersion;
  out[5] = static_cast<std::uint8_t>(frame.type);
  out[6] = 0;
  out[7] = 0;
  std::memcpy(out.data() + 8, &len, 4);
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  const std::uint64_t sum = wire_checksum(out.data(), out.size());
  const std::size_t pos = out.size();
  out.resize(pos + kWireChecksumBytes);
  std::memcpy(out.data() + pos, &sum, 8);
  return out;
}

Frame decode_frame(const std::uint8_t* data, std::size_t size) {
  BSTC_REQUIRE(size >= kWireHeaderBytes + kWireChecksumBytes,
               "wire: truncated frame (shorter than header + checksum)");
  std::uint32_t magic = 0;
  std::memcpy(&magic, data, 4);
  BSTC_REQUIRE(magic == kWireMagic, "wire: bad magic");
  BSTC_REQUIRE(data[4] == kWireVersion, "wire: unsupported protocol version");
  BSTC_REQUIRE(valid_frame_type(data[5]), "wire: unknown frame type");
  BSTC_REQUIRE(data[6] == 0 && data[7] == 0, "wire: nonzero reserved flags");
  std::uint32_t len = 0;
  std::memcpy(&len, data + 8, 4);
  BSTC_REQUIRE(len <= kMaxPayloadBytes, "wire: payload length exceeds limit");
  const std::size_t expect = kWireHeaderBytes + len + kWireChecksumBytes;
  BSTC_REQUIRE(size >= expect, "wire: truncated frame (payload cut short)");
  BSTC_REQUIRE(size == expect, "wire: trailing bytes after frame");
  std::uint64_t sum = 0;
  std::memcpy(&sum, data + kWireHeaderBytes + len, 8);
  const std::uint64_t actual = wire_checksum(data, kWireHeaderBytes + len);
  BSTC_REQUIRE(sum == actual, "wire: checksum mismatch (corrupted frame)");
  Frame frame;
  frame.type = static_cast<FrameType>(data[5]);
  frame.payload.assign(data + kWireHeaderBytes, data + kWireHeaderBytes + len);
  return frame;
}

// ---------------------------------------------------------------------------

void WireWriter::str(const std::string& s) {
  BSTC_REQUIRE(s.size() <= kMaxPayloadBytes, "wire: string too long");
  u32(static_cast<std::uint32_t>(s.size()));
  raw(s.data(), s.size());
}

void WireWriter::raw(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), p, p + size);
}

std::uint8_t WireReader::u8() {
  std::uint8_t v = 0;
  raw(&v, sizeof v);
  return v;
}
std::uint16_t WireReader::u16() {
  std::uint16_t v = 0;
  raw(&v, sizeof v);
  return v;
}
std::uint32_t WireReader::u32() {
  std::uint32_t v = 0;
  raw(&v, sizeof v);
  return v;
}
std::uint64_t WireReader::u64() {
  std::uint64_t v = 0;
  raw(&v, sizeof v);
  return v;
}
double WireReader::f64() {
  double v = 0;
  raw(&v, sizeof v);
  return v;
}

std::string WireReader::str() {
  const std::uint32_t len = u32();
  BSTC_REQUIRE(len <= remaining(), "wire: truncated string");
  std::string s(len, '\0');
  raw(s.data(), len);
  return s;
}

void WireReader::raw(void* out, std::size_t size) {
  BSTC_REQUIRE(size <= remaining(), "wire: truncated payload");
  // A zero-extent tile has no storage: memcpy with its null pointer is
  // undefined even for zero bytes.
  if (size == 0) return;
  std::memcpy(out, data_ + pos_, size);
  pos_ += size;
}

void WireReader::finish() const {
  BSTC_REQUIRE(pos_ == size_, "wire: trailing bytes in payload");
}

// ---------------------------------------------------------------------------

Frame encode_tile(FrameType type, std::uint64_t key, const Tile& tile) {
  // Counts every tile serialization in the process — the witness the
  // serialize-once regression asserts on (a q-peer broadcast must bump
  // this exactly once, not q-1 times).
  obs::Registry::instance().counter_add("bstc_tile_encodes_total");
  WireWriter w;
  w.u64(key);
  w.u32(static_cast<std::uint32_t>(tile.rows()));
  w.u32(static_cast<std::uint32_t>(tile.cols()));
  w.raw(tile.data(), tile.bytes());
  return Frame{type, w.take()};
}

TileMsg decode_tile(const Frame& frame) {
  WireReader r(frame.payload);
  TileMsg msg;
  msg.key = r.u64();
  const auto rows = static_cast<Index>(r.u32());
  const auto cols = static_cast<Index>(r.u32());
  BSTC_REQUIRE(static_cast<std::uint64_t>(rows) *
                       static_cast<std::uint64_t>(cols) * sizeof(double) ==
                   r.remaining(),
               "wire: tile extents disagree with payload size");
  msg.tile = Tile(rows, cols);
  r.raw(msg.tile.data(), msg.tile.bytes());
  r.finish();
  return msg;
}

Frame encode_bcast(const BcastTileMsg& msg) {
  // One serialization per broadcast, whatever the fanout (the relays
  // forward the payload verbatim) — counted like encode_tile so the
  // serialize-once regression covers both paths.
  obs::Registry::instance().counter_add("bstc_tile_encodes_total");
  WireWriter w;
  w.u64(msg.key);
  w.u8(static_cast<std::uint8_t>(msg.algo));
  w.u32(msg.root);
  w.u32(static_cast<std::uint32_t>(msg.parts.size()));
  for (const std::uint32_t p : msg.parts) w.u32(p);
  w.u32(static_cast<std::uint32_t>(msg.tile.rows()));
  w.u32(static_cast<std::uint32_t>(msg.tile.cols()));
  w.raw(msg.tile.data(), msg.tile.bytes());
  return Frame{FrameType::kBcast, w.take()};
}

BcastTileMsg decode_bcast(const Frame& frame) {
  BSTC_REQUIRE(
      frame.type == FrameType::kBcast || frame.type == FrameType::kBcastFwd,
      "wire: expected broadcast frame");
  WireReader r(frame.payload);
  BcastTileMsg msg;
  msg.key = r.u64();
  const std::uint8_t algo = r.u8();
  BSTC_REQUIRE(algo == static_cast<std::uint8_t>(BcastAlgorithm::kTree) ||
                   algo == static_cast<std::uint8_t>(BcastAlgorithm::kRing),
               "wire: unknown broadcast algorithm");
  msg.algo = static_cast<BcastAlgorithm>(algo);
  msg.root = r.u32();
  const std::uint32_t nparts = r.u32();
  BSTC_REQUIRE(nparts >= 2, "wire: broadcast needs at least two participants");
  BSTC_REQUIRE(static_cast<std::uint64_t>(nparts) * 4 <= r.remaining(),
               "wire: truncated broadcast participant list");
  msg.parts.reserve(nparts);
  bool has_root = false;
  for (std::uint32_t i = 0; i < nparts; ++i) {
    const std::uint32_t p = r.u32();
    BSTC_REQUIRE(msg.parts.empty() || p > msg.parts.back(),
                 "wire: broadcast participants must be strictly ascending");
    if (p == msg.root) has_root = true;
    msg.parts.push_back(p);
  }
  BSTC_REQUIRE(has_root, "wire: broadcast root missing from participants");
  const auto rows = static_cast<Index>(r.u32());
  const auto cols = static_cast<Index>(r.u32());
  BSTC_REQUIRE(static_cast<std::uint64_t>(rows) *
                       static_cast<std::uint64_t>(cols) * sizeof(double) ==
                   r.remaining(),
               "wire: broadcast tile extents disagree with payload size");
  msg.tile = Tile(rows, cols);
  r.raw(msg.tile.data(), msg.tile.bytes());
  r.finish();
  return msg;
}

Frame encode_hello(const HelloMsg& msg) {
  WireWriter w;
  w.u32(msg.rank);
  w.u32(msg.np);
  w.u16(msg.listen_port);
  w.u64(msg.fingerprint);
  w.u32(msg.node_id);
  return Frame{FrameType::kHello, w.take()};
}

HelloMsg decode_hello(const Frame& frame) {
  BSTC_REQUIRE(frame.type == FrameType::kHello, "wire: expected hello frame");
  WireReader r(frame.payload);
  HelloMsg msg;
  msg.rank = r.u32();
  msg.np = r.u32();
  msg.listen_port = r.u16();
  msg.fingerprint = r.u64();
  msg.node_id = r.u32();
  r.finish();
  return msg;
}

Frame encode_welcome(const WelcomeMsg& msg) {
  WireWriter w;
  w.u32(msg.rank);
  w.u32(msg.np);
  w.u32(static_cast<std::uint32_t>(msg.peers.size()));
  for (const auto& [host, port] : msg.peers) {
    w.str(host);
    w.u16(port);
  }
  w.u32(static_cast<std::uint32_t>(msg.node_of_rank.size()));
  for (const std::uint32_t n : msg.node_of_rank) w.u32(n);
  w.u8(msg.node_aware);
  w.u8(static_cast<std::uint8_t>(msg.bcast));
  w.u8(msg.shm_bcast);
  w.u64(msg.session);
  return Frame{FrameType::kWelcome, w.take()};
}

WelcomeMsg decode_welcome(const Frame& frame) {
  BSTC_REQUIRE(frame.type == FrameType::kWelcome,
               "wire: expected welcome frame");
  WireReader r(frame.payload);
  WelcomeMsg msg;
  msg.rank = r.u32();
  msg.np = r.u32();
  const std::uint32_t count = r.u32();
  msg.peers.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string host = r.str();
    const std::uint16_t port = r.u16();
    msg.peers.emplace_back(std::move(host), port);
  }
  const std::uint32_t nodes = r.u32();
  BSTC_REQUIRE(nodes == 0 || nodes == msg.np,
               "wire: welcome node map must cover every rank");
  BSTC_REQUIRE(static_cast<std::uint64_t>(nodes) * 4 <= r.remaining(),
               "wire: truncated welcome node map");
  msg.node_of_rank.reserve(nodes);
  for (std::uint32_t i = 0; i < nodes; ++i) msg.node_of_rank.push_back(r.u32());
  msg.node_aware = r.u8();
  const std::uint8_t bcast = r.u8();
  BSTC_REQUIRE(bcast <= static_cast<std::uint8_t>(BcastSelect::kAuto),
               "wire: unknown broadcast selection");
  msg.bcast = static_cast<BcastSelect>(bcast);
  msg.shm_bcast = r.u8();
  msg.session = r.u64();
  r.finish();
  return msg;
}

Frame encode_count(FrameType type, std::uint64_t count) {
  WireWriter w;
  w.u64(count);
  return Frame{type, w.take()};
}

std::uint64_t decode_count(const Frame& frame, FrameType expected) {
  BSTC_REQUIRE(frame.type == expected, "wire: unexpected control frame type");
  WireReader r(frame.payload);
  const std::uint64_t count = r.u64();
  r.finish();
  return count;
}

Frame encode_barrier(std::uint32_t epoch) {
  WireWriter w;
  w.u32(epoch);
  return Frame{FrameType::kBarrier, w.take()};
}

std::uint32_t decode_barrier(const Frame& frame) {
  BSTC_REQUIRE(frame.type == FrameType::kBarrier,
               "wire: expected barrier frame");
  WireReader r(frame.payload);
  const std::uint32_t epoch = r.u32();
  r.finish();
  return epoch;
}

Frame encode_summary(const SummaryMsg& msg) {
  WireWriter w;
  w.u32(msg.rank);
  w.f64(msg.a_wire_bytes);
  w.f64(msg.c_wire_bytes);
  w.u64(msg.frames_sent);
  w.u64(msg.frames_received);
  w.u64(msg.connect_retries);
  w.u64(msg.reconnects);
  w.u64(static_cast<std::uint64_t>(msg.tasks_executed));
  w.f64(msg.engine_seconds);
  w.f64(msg.a_inter_bytes);
  w.f64(msg.a_intra_bytes);
  w.f64(msg.shm_bytes);
  w.u64(msg.bcast_frames);
  w.u64(msg.bcast_fwd_frames);
  w.u64(msg.shm_publishes);
  w.str(msg.metrics_text);
  return Frame{FrameType::kSummary, w.take()};
}

SummaryMsg decode_summary(const Frame& frame) {
  BSTC_REQUIRE(frame.type == FrameType::kSummary,
               "wire: expected summary frame");
  WireReader r(frame.payload);
  SummaryMsg msg;
  msg.rank = r.u32();
  msg.a_wire_bytes = r.f64();
  msg.c_wire_bytes = r.f64();
  msg.frames_sent = r.u64();
  msg.frames_received = r.u64();
  msg.connect_retries = r.u64();
  msg.reconnects = r.u64();
  msg.tasks_executed = static_cast<std::size_t>(r.u64());
  msg.engine_seconds = r.f64();
  msg.a_inter_bytes = r.f64();
  msg.a_intra_bytes = r.f64();
  msg.shm_bytes = r.f64();
  msg.bcast_frames = r.u64();
  msg.bcast_fwd_frames = r.u64();
  msg.shm_publishes = r.u64();
  msg.metrics_text = r.str();
  r.finish();
  return msg;
}

Frame encode_verdict(const VerdictMsg& msg) {
  WireWriter w;
  w.u8(msg.bitwise_identical ? 1 : 0);
  w.f64(msg.max_abs_diff);
  w.f64(msg.stats_a_network_bytes);
  w.f64(msg.stats_c_network_bytes);
  w.f64(msg.c_norm);
  w.f64(msg.stats_a_internode_bytes);
  w.f64(msg.stats_a_intranode_bytes);
  return Frame{FrameType::kVerdict, w.take()};
}

VerdictMsg decode_verdict(const Frame& frame) {
  BSTC_REQUIRE(frame.type == FrameType::kVerdict,
               "wire: expected verdict frame");
  WireReader r(frame.payload);
  VerdictMsg msg;
  msg.bitwise_identical = r.u8() != 0;
  msg.max_abs_diff = r.f64();
  msg.stats_a_network_bytes = r.f64();
  msg.stats_c_network_bytes = r.f64();
  msg.c_norm = r.f64();
  msg.stats_a_internode_bytes = r.f64();
  msg.stats_a_intranode_bytes = r.f64();
  r.finish();
  return msg;
}

Frame encode_shutdown(const std::string& reason) {
  WireWriter w;
  w.str(reason);
  return Frame{FrameType::kShutdown, w.take()};
}

std::string decode_shutdown(const Frame& frame) {
  BSTC_REQUIRE(frame.type == FrameType::kShutdown,
               "wire: expected shutdown frame");
  WireReader r(frame.payload);
  std::string reason = r.str();
  r.finish();
  return reason;
}

Frame encode_clock_probe(const ClockProbeMsg& msg) {
  WireWriter w;
  w.u8(msg.done ? 1 : 0);
  w.u32(msg.seq);
  w.f64(msg.t0);
  return Frame{FrameType::kClockProbe, w.take()};
}

ClockProbeMsg decode_clock_probe(const Frame& frame) {
  BSTC_REQUIRE(frame.type == FrameType::kClockProbe,
               "wire: expected clock-probe frame");
  WireReader r(frame.payload);
  ClockProbeMsg msg;
  msg.done = r.u8() != 0;
  msg.seq = r.u32();
  msg.t0 = r.f64();
  r.finish();
  return msg;
}

Frame encode_clock_reply(const ClockReplyMsg& msg) {
  WireWriter w;
  w.u32(msg.seq);
  w.f64(msg.t0);
  w.f64(msg.t_peer);
  return Frame{FrameType::kClockReply, w.take()};
}

ClockReplyMsg decode_clock_reply(const Frame& frame) {
  BSTC_REQUIRE(frame.type == FrameType::kClockReply,
               "wire: expected clock-reply frame");
  WireReader r(frame.payload);
  ClockReplyMsg msg;
  msg.seq = r.u32();
  msg.t0 = r.f64();
  msg.t_peer = r.f64();
  r.finish();
  return msg;
}

Frame encode_trace(const TraceMsg& msg) {
  WireWriter w;
  w.u32(msg.rank);
  w.u64(msg.wire_frames_sent);
  w.u64(msg.wire_frames_received);
  w.u64(msg.wire_bytes_sent);
  w.u64(msg.wire_bytes_received);
  w.u32(static_cast<std::uint32_t>(msg.lane_names.size()));
  for (const auto& [lane, name] : msg.lane_names) {
    w.u32(lane);
    w.str(name);
  }
  w.u32(static_cast<std::uint32_t>(msg.spans.size()));
  for (const obs::Span& s : msg.spans) {
    w.u8(static_cast<std::uint8_t>(s.category));
    w.u32(s.lane);
    w.f64(s.start_s);
    w.f64(s.end_s);
    w.u64(s.bytes);
    w.str(s.name);
  }
  return Frame{FrameType::kTrace, w.take()};
}

TraceMsg decode_trace(const Frame& frame) {
  BSTC_REQUIRE(frame.type == FrameType::kTrace, "wire: expected trace frame");
  WireReader r(frame.payload);
  TraceMsg msg;
  msg.rank = r.u32();
  msg.wire_frames_sent = r.u64();
  msg.wire_frames_received = r.u64();
  msg.wire_bytes_sent = r.u64();
  msg.wire_bytes_received = r.u64();
  const std::uint32_t lanes = r.u32();
  msg.lane_names.reserve(lanes);
  for (std::uint32_t i = 0; i < lanes; ++i) {
    const std::uint32_t lane = r.u32();
    msg.lane_names.emplace_back(lane, r.str());
  }
  const std::uint32_t count = r.u32();
  msg.spans.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    obs::Span s;
    s.category = static_cast<obs::Category>(r.u8());
    s.lane = r.u32();
    s.start_s = r.f64();
    s.end_s = r.f64();
    s.bytes = r.u64();
    s.name = r.str();
    msg.spans.push_back(std::move(s));
  }
  r.finish();
  return msg;
}

// ---------------------------------------------------------------------------
// Serving frames.

Frame encode_request(const RequestMsg& msg) {
  WireWriter w;
  w.u64(msg.request_id);
  w.u8(msg.kind);
  w.u64(static_cast<std::uint64_t>(msg.m));
  w.u64(static_cast<std::uint64_t>(msg.k));
  w.u64(static_cast<std::uint64_t>(msg.n));
  w.f64(msg.density);
  w.u64(static_cast<std::uint64_t>(msg.tile_lo));
  w.u64(static_cast<std::uint64_t>(msg.tile_hi));
  w.u64(msg.seed);
  w.u32(msg.gpus);
  w.f64(msg.gpu_mem);
  w.u32(msg.p);
  w.u64(msg.a_seed);
  w.u8(msg.want_c ? 1 : 0);
  w.str(msg.program);
  return Frame{FrameType::kRequest, w.take()};
}

RequestMsg decode_request(const Frame& frame) {
  BSTC_REQUIRE(frame.type == FrameType::kRequest,
               "wire: expected request frame");
  WireReader r(frame.payload);
  RequestMsg msg;
  msg.request_id = r.u64();
  msg.kind = r.u8();
  BSTC_REQUIRE(msg.kind >= 1 && msg.kind <= 5,
               "wire: unknown serving request kind");
  msg.m = static_cast<std::int64_t>(r.u64());
  msg.k = static_cast<std::int64_t>(r.u64());
  msg.n = static_cast<std::int64_t>(r.u64());
  msg.density = r.f64();
  msg.tile_lo = static_cast<std::int64_t>(r.u64());
  msg.tile_hi = static_cast<std::int64_t>(r.u64());
  msg.seed = r.u64();
  msg.gpus = r.u32();
  msg.gpu_mem = r.f64();
  msg.p = r.u32();
  msg.a_seed = r.u64();
  msg.want_c = r.u8() != 0;
  msg.program = r.str();
  r.finish();
  return msg;
}

Frame encode_response(const ResponseMsg& msg) {
  WireWriter w;
  w.u64(msg.request_id);
  w.u8(msg.status);
  w.u64(msg.fingerprint);
  w.u64(msg.routing_key);
  w.u32(msg.served_by);
  w.u8(msg.plan_cache_hit ? 1 : 0);
  w.f64(msg.queue_wait_s);
  w.f64(msg.inspect_s);
  w.f64(msg.execute_s);
  w.u64(msg.tasks_executed);
  w.u64(msg.b_max_generations);
  w.u64(msg.c_checksum);
  w.f64(msg.c_norm);
  w.str(msg.text);
  w.str(msg.error);
  w.u64(msg.program_nodes);
  w.u64(msg.program_intermediates);
  w.u64(msg.program_reuse);
  w.u8(msg.has_c ? 1 : 0);
  if (msg.has_c) {
    w.u32(static_cast<std::uint32_t>(msg.c_tiles.size()));
    for (const auto& [key, tile] : msg.c_tiles) {
      w.u64(key);
      w.u32(static_cast<std::uint32_t>(tile.rows()));
      w.u32(static_cast<std::uint32_t>(tile.cols()));
      w.raw(tile.data(), tile.bytes());
    }
  }
  return Frame{FrameType::kResponse, w.take()};
}

ResponseMsg decode_response(const Frame& frame) {
  BSTC_REQUIRE(frame.type == FrameType::kResponse,
               "wire: expected response frame");
  WireReader r(frame.payload);
  ResponseMsg msg;
  msg.request_id = r.u64();
  msg.status = r.u8();
  msg.fingerprint = r.u64();
  msg.routing_key = r.u64();
  msg.served_by = r.u32();
  msg.plan_cache_hit = r.u8() != 0;
  msg.queue_wait_s = r.f64();
  msg.inspect_s = r.f64();
  msg.execute_s = r.f64();
  msg.tasks_executed = r.u64();
  msg.b_max_generations = r.u64();
  msg.c_checksum = r.u64();
  msg.c_norm = r.f64();
  msg.text = r.str();
  msg.error = r.str();
  msg.program_nodes = r.u64();
  msg.program_intermediates = r.u64();
  msg.program_reuse = r.u64();
  msg.has_c = r.u8() != 0;
  if (msg.has_c) {
    const std::uint32_t count = r.u32();
    msg.c_tiles.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint64_t key = r.u64();
      const auto rows = static_cast<Index>(r.u32());
      const auto cols = static_cast<Index>(r.u32());
      const std::uint64_t bytes = static_cast<std::uint64_t>(rows) *
                                  static_cast<std::uint64_t>(cols) *
                                  sizeof(double);
      BSTC_REQUIRE(bytes <= r.remaining(),
                   "wire: response tile extents disagree with payload size");
      Tile tile(rows, cols);
      r.raw(tile.data(), tile.bytes());
      msg.c_tiles.emplace_back(key, std::move(tile));
    }
  }
  r.finish();
  return msg;
}

const char* service_ctl_op_name(ServiceCtlOp op) {
  switch (op) {
    case ServiceCtlOp::kMetricsQuery: return "metrics-query";
    case ServiceCtlOp::kMetricsReply: return "metrics-reply";
    case ServiceCtlOp::kDrain: return "drain";
    case ServiceCtlOp::kDrainAck: return "drain-ack";
    case ServiceCtlOp::kCrash: return "crash";
    case ServiceCtlOp::kStoreSwap: return "store-swap";
    case ServiceCtlOp::kStoreSwapAck: return "store-swap-ack";
  }
  return "unknown";
}

Frame encode_service_ctl(const ServiceCtlMsg& msg) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(msg.op));
  w.u32(msg.rank);
  w.u32(static_cast<std::uint32_t>(msg.counters.size()));
  for (const std::uint64_t v : msg.counters) w.u64(v);
  w.str(msg.text);
  return Frame{FrameType::kServiceCtl, w.take()};
}

ServiceCtlMsg decode_service_ctl(const Frame& frame) {
  BSTC_REQUIRE(frame.type == FrameType::kServiceCtl,
               "wire: expected service-ctl frame");
  WireReader r(frame.payload);
  ServiceCtlMsg msg;
  const std::uint8_t op = r.u8();
  BSTC_REQUIRE(op >= 1 && op <= 7, "wire: unknown service-ctl op");
  msg.op = static_cast<ServiceCtlOp>(op);
  msg.rank = r.u32();
  const std::uint32_t count = r.u32();
  BSTC_REQUIRE(static_cast<std::uint64_t>(count) * 8 <= r.remaining(),
               "wire: truncated service-ctl counters");
  msg.counters.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) msg.counters.push_back(r.u64());
  msg.text = r.str();
  r.finish();
  return msg;
}

}  // namespace bstc::net
