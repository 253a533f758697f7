/// Tests for the BSTC wire protocol: binary round-trips (including
/// degenerate tile extents), and rejection of corrupted, truncated, and
/// trailing-garbage frames.

#include <gtest/gtest.h>

#include <cstring>

#include "net/wire.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace bstc::net {
namespace {

TEST(Wire, TileRoundTripsBitwise) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const Index rows = static_cast<Index>(rng.uniform_int(1, 40));
    const Index cols = static_cast<Index>(rng.uniform_int(1, 40));
    Tile tile(rows, cols);
    tile.fill_random(rng);
    const std::uint64_t key =
        (static_cast<std::uint64_t>(trial) << 32) | 7u;

    const Frame frame = encode_tile(FrameType::kTile, key, tile);
    const std::vector<std::uint8_t> bytes = encode_frame(frame);
    const TileMsg msg = decode_tile(decode_frame(bytes));

    EXPECT_EQ(msg.key, key);
    ASSERT_EQ(msg.tile.rows(), rows);
    ASSERT_EQ(msg.tile.cols(), cols);
    EXPECT_EQ(std::memcmp(msg.tile.data(), tile.data(), tile.bytes()), 0);
  }
}

TEST(Wire, ZeroExtentFringeTilesRoundTrip) {
  // 0-row and 0-col fringes occur for empty tilings; they must travel.
  for (const auto& [rows, cols] : {std::pair<Index, Index>{0, 5},
                                   std::pair<Index, Index>{5, 0},
                                   std::pair<Index, Index>{0, 0}}) {
    const Tile tile(rows, cols);
    const Frame frame = encode_tile(FrameType::kCTile, 3, tile);
    const TileMsg msg = decode_tile(decode_frame(encode_frame(frame)));
    EXPECT_EQ(msg.tile.rows(), rows);
    EXPECT_EQ(msg.tile.cols(), cols);
  }
}

TEST(Wire, ControlMessagesRoundTrip) {
  HelloMsg hello;
  hello.rank = kUnassignedRank;
  hello.np = 12;
  hello.listen_port = 40123;
  hello.fingerprint = 0xdeadbeefcafef00dull;
  const HelloMsg h2 = decode_hello(decode_frame(
      encode_frame(encode_hello(hello))));
  EXPECT_EQ(h2.rank, hello.rank);
  EXPECT_EQ(h2.np, hello.np);
  EXPECT_EQ(h2.listen_port, hello.listen_port);
  EXPECT_EQ(h2.fingerprint, hello.fingerprint);

  WelcomeMsg welcome;
  welcome.rank = 3;
  welcome.np = 4;
  welcome.peers = {{"127.0.0.1", 1111}, {"10.0.0.2", 2222},
                   {"localhost", 3333}, {"127.0.0.1", 4444}};
  const WelcomeMsg w2 = decode_welcome(decode_frame(
      encode_frame(encode_welcome(welcome))));
  EXPECT_EQ(w2.rank, welcome.rank);
  EXPECT_EQ(w2.np, welcome.np);
  EXPECT_EQ(w2.peers, welcome.peers);

  EXPECT_EQ(decode_count(encode_count(FrameType::kCDone, 987654321ull),
                         FrameType::kCDone),
            987654321ull);
  EXPECT_EQ(decode_barrier(encode_barrier(41)), 41u);
  EXPECT_EQ(decode_shutdown(encode_shutdown("all done")), "all done");

  SummaryMsg summary;
  summary.rank = 2;
  summary.a_wire_bytes = 123456.0;
  summary.c_wire_bytes = 78910.0;
  summary.frames_sent = 77;
  summary.frames_received = 88;
  summary.connect_retries = 3;
  summary.reconnects = 1;
  summary.tasks_executed = 999;
  summary.engine_seconds = 0.125;
  const SummaryMsg s2 = decode_summary(decode_frame(
      encode_frame(encode_summary(summary))));
  EXPECT_EQ(s2.rank, summary.rank);
  EXPECT_EQ(s2.a_wire_bytes, summary.a_wire_bytes);
  EXPECT_EQ(s2.c_wire_bytes, summary.c_wire_bytes);
  EXPECT_EQ(s2.frames_sent, summary.frames_sent);
  EXPECT_EQ(s2.tasks_executed, summary.tasks_executed);
  EXPECT_EQ(s2.engine_seconds, summary.engine_seconds);

  VerdictMsg verdict;
  verdict.bitwise_identical = true;
  verdict.max_abs_diff = 0.0;
  verdict.stats_a_network_bytes = 42.0;
  verdict.stats_c_network_bytes = 43.0;
  verdict.c_norm = 3.5;
  const VerdictMsg v2 = decode_verdict(decode_frame(
      encode_frame(encode_verdict(verdict))));
  EXPECT_EQ(v2.bitwise_identical, verdict.bitwise_identical);
  EXPECT_EQ(v2.stats_a_network_bytes, verdict.stats_a_network_bytes);
  EXPECT_EQ(v2.c_norm, verdict.c_norm);
}

TEST(Wire, CorruptedBytesAreRejected) {
  Tile tile(6, 6);
  Rng rng(5);
  tile.fill_random(rng);
  const std::vector<std::uint8_t> good =
      encode_frame(encode_tile(FrameType::kTile, 9, tile));
  // Flip every byte position in turn: header, payload, or checksum — any
  // single corruption must be rejected (the checksum covers the header).
  for (std::size_t pos = 0; pos < good.size();
       pos += 1 + good.size() / 64) {
    std::vector<std::uint8_t> bad = good;
    bad[pos] ^= 0x40;
    EXPECT_THROW(decode_frame(bad), Error) << "at byte " << pos;
  }
}

TEST(Wire, TruncatedAndTrailingFramesAreRejected) {
  const std::vector<std::uint8_t> good =
      encode_frame(encode_count(FrameType::kGatherDone, 5));
  // Every proper prefix is a truncated frame.
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_THROW(decode_frame(good.data(), len), Error) << "len " << len;
  }
  // Trailing bytes after a complete frame are garbage, not silence.
  std::vector<std::uint8_t> trailing = good;
  trailing.push_back(0);
  EXPECT_THROW(decode_frame(trailing), Error);
}

TEST(Wire, LengthBombIsRejected) {
  // A corrupted length field must not cause a giant allocation: lengths
  // above kMaxPayloadBytes are rejected before any payload is read.
  std::vector<std::uint8_t> bytes =
      encode_frame(encode_count(FrameType::kCDone, 1));
  const std::uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(bytes.data() + 8, &huge, sizeof huge);
  EXPECT_THROW(decode_frame(bytes), Error);
}

TEST(Wire, PayloadSizeMustMatchTileExtents) {
  // A tile frame whose payload length disagrees with rows*cols is
  // corrupt even if the checksum was recomputed by an attacker/bug.
  Frame frame = encode_tile(FrameType::kTile, 1, Tile(2, 2));
  frame.payload.pop_back();
  EXPECT_THROW(decode_tile(frame), Error);
}

// ---------------------------------------------------------------------------
// Serving frames (kRequest / kResponse / kServiceCtl).

RequestMsg sample_request() {
  RequestMsg msg;
  msg.request_id = 0x1122334455667788ull;
  msg.kind = 2;  // session-iterate
  msg.m = 96;
  msg.k = 480;
  msg.n = 481;
  msg.density = 0.375;
  msg.tile_lo = 8;
  msg.tile_hi = 24;
  msg.seed = 42;
  msg.gpus = 3;
  msg.gpu_mem = 1.5e6;
  msg.p = 2;
  msg.a_seed = 4242;
  msg.want_c = true;
  return msg;
}

TEST(Wire, RequestRoundTripsBitwise) {
  const RequestMsg msg = sample_request();
  const RequestMsg r2 =
      decode_request(decode_frame(encode_frame(encode_request(msg))));
  EXPECT_EQ(r2.request_id, msg.request_id);
  EXPECT_EQ(r2.kind, msg.kind);
  EXPECT_EQ(r2.m, msg.m);
  EXPECT_EQ(r2.k, msg.k);
  EXPECT_EQ(r2.n, msg.n);
  EXPECT_EQ(r2.density, msg.density);
  EXPECT_EQ(r2.tile_lo, msg.tile_lo);
  EXPECT_EQ(r2.tile_hi, msg.tile_hi);
  EXPECT_EQ(r2.seed, msg.seed);
  EXPECT_EQ(r2.gpus, msg.gpus);
  EXPECT_EQ(r2.gpu_mem, msg.gpu_mem);
  EXPECT_EQ(r2.p, msg.p);
  EXPECT_EQ(r2.a_seed, msg.a_seed);
  EXPECT_EQ(r2.want_c, msg.want_c);
}

TEST(Wire, RequestRejectsUnknownKind) {
  RequestMsg msg = sample_request();
  msg.kind = 0;
  EXPECT_THROW(decode_request(decode_frame(encode_frame(
                   encode_request(msg)))),
               Error);
  msg.kind = 6;  // one past kProgramRun, the highest defined kind
  EXPECT_THROW(decode_request(decode_frame(encode_frame(
                   encode_request(msg)))),
               Error);
}

TEST(Wire, ResponseRoundTripsBitwise) {
  Rng rng(17);
  ResponseMsg msg;
  msg.request_id = 31337;
  msg.status = 0;
  msg.fingerprint = 0xfeedface12345678ull;
  msg.routing_key = 0x8765432187654321ull;
  msg.served_by = 3;
  msg.plan_cache_hit = true;
  msg.queue_wait_s = 0.001;
  msg.inspect_s = 0.002;
  msg.execute_s = 0.5;
  msg.tasks_executed = 999;
  msg.b_max_generations = 2;
  msg.c_checksum = 0xabcdefull;
  msg.c_norm = 12.75;
  msg.text = "plan narrative";
  msg.error = "";
  msg.has_c = true;
  for (int i = 0; i < 4; ++i) {
    Tile tile(static_cast<Index>(1 + i), static_cast<Index>(3 + i));
    tile.fill_random(rng);
    msg.c_tiles.emplace_back(
        (static_cast<std::uint64_t>(i) << 32) | static_cast<unsigned>(i + 1),
        std::move(tile));
  }
  // A zero-extent fringe tile must travel too.
  msg.c_tiles.emplace_back(77, Tile(0, 5));

  const ResponseMsg r2 =
      decode_response(decode_frame(encode_frame(encode_response(msg))));
  EXPECT_EQ(r2.request_id, msg.request_id);
  EXPECT_EQ(r2.status, msg.status);
  EXPECT_EQ(r2.fingerprint, msg.fingerprint);
  EXPECT_EQ(r2.routing_key, msg.routing_key);
  EXPECT_EQ(r2.served_by, msg.served_by);
  EXPECT_EQ(r2.plan_cache_hit, msg.plan_cache_hit);
  EXPECT_EQ(r2.execute_s, msg.execute_s);
  EXPECT_EQ(r2.tasks_executed, msg.tasks_executed);
  EXPECT_EQ(r2.b_max_generations, msg.b_max_generations);
  EXPECT_EQ(r2.c_checksum, msg.c_checksum);
  EXPECT_EQ(r2.c_norm, msg.c_norm);
  EXPECT_EQ(r2.text, msg.text);
  EXPECT_EQ(r2.has_c, msg.has_c);
  ASSERT_EQ(r2.c_tiles.size(), msg.c_tiles.size());
  for (std::size_t i = 0; i < msg.c_tiles.size(); ++i) {
    EXPECT_EQ(r2.c_tiles[i].first, msg.c_tiles[i].first);
    ASSERT_EQ(r2.c_tiles[i].second.rows(), msg.c_tiles[i].second.rows());
    ASSERT_EQ(r2.c_tiles[i].second.cols(), msg.c_tiles[i].second.cols());
    // A zero-extent tile has no storage to compare (and a null data()).
    if (msg.c_tiles[i].second.empty()) continue;
    EXPECT_EQ(std::memcmp(r2.c_tiles[i].second.data(),
                          msg.c_tiles[i].second.data(),
                          msg.c_tiles[i].second.bytes()),
              0);
  }
}

TEST(Wire, ServiceCtlRoundTrips) {
  ServiceCtlMsg msg;
  msg.op = ServiceCtlOp::kMetricsReply;
  msg.rank = 4;
  msg.counters = {1, 2, 3, 0xffffffffffffffffull, 5};
  msg.text = "bstc_service_completed_total{rank=\"4\"} 3\n";
  const ServiceCtlMsg c2 = decode_service_ctl(
      decode_frame(encode_frame(encode_service_ctl(msg))));
  EXPECT_EQ(c2.op, msg.op);
  EXPECT_EQ(c2.rank, msg.rank);
  EXPECT_EQ(c2.counters, msg.counters);
  EXPECT_EQ(c2.text, msg.text);
}

TEST(Wire, ServiceCtlRejectsUnknownOp) {
  ServiceCtlMsg msg;
  msg.op = static_cast<ServiceCtlOp>(0);
  EXPECT_THROW(decode_service_ctl(decode_frame(encode_frame(
                   encode_service_ctl(msg)))),
               Error);
  msg.op = static_cast<ServiceCtlOp>(8);
  EXPECT_THROW(decode_service_ctl(decode_frame(encode_frame(
                   encode_service_ctl(msg)))),
               Error);
}

TEST(Wire, ServiceCtlStoreSwapRoundTrips) {
  // The shm hot-swap doorbell and its ack are ordinary ctl frames: the
  // ack's counters carry {ok, generation} and text the error detail.
  ServiceCtlMsg doorbell;
  doorbell.op = ServiceCtlOp::kStoreSwap;
  const ServiceCtlMsg d2 = decode_service_ctl(
      decode_frame(encode_frame(encode_service_ctl(doorbell))));
  EXPECT_EQ(d2.op, ServiceCtlOp::kStoreSwap);

  ServiceCtlMsg ack;
  ack.op = ServiceCtlOp::kStoreSwapAck;
  ack.rank = 3;
  ack.counters = {1, 7};
  ack.text = "";
  const ServiceCtlMsg a2 = decode_service_ctl(
      decode_frame(encode_frame(encode_service_ctl(ack))));
  EXPECT_EQ(a2.op, ServiceCtlOp::kStoreSwapAck);
  EXPECT_EQ(a2.rank, 3u);
  EXPECT_EQ(a2.counters, (std::vector<std::uint64_t>{1, 7}));
}

TEST(Wire, ServeFramesRejectCorruptionAndTruncation) {
  Rng rng(23);
  ResponseMsg resp;
  resp.request_id = 5;
  resp.has_c = true;
  Tile tile(3, 4);
  tile.fill_random(rng);
  resp.c_tiles.emplace_back(42, std::move(tile));
  const std::vector<std::vector<std::uint8_t>> frames = {
      encode_frame(encode_request(sample_request())),
      encode_frame(encode_response(resp)),
      encode_frame(encode_service_ctl(
          {ServiceCtlOp::kMetricsQuery, 0, {}, ""})),
  };
  for (const auto& good : frames) {
    // Single-byte corruption anywhere must be rejected by the checksum.
    for (std::size_t pos = 0; pos < good.size();
         pos += 1 + good.size() / 64) {
      std::vector<std::uint8_t> bad = good;
      bad[pos] ^= 0x40;
      EXPECT_THROW(decode_frame(bad), Error) << "at byte " << pos;
    }
    // Every proper prefix is a truncated frame.
    for (std::size_t len = 0; len < good.size();
         len += 1 + good.size() / 64) {
      EXPECT_THROW(decode_frame(good.data(), len), Error) << "len " << len;
    }
    // Trailing bytes after a complete frame are garbage, not silence.
    std::vector<std::uint8_t> trailing = good;
    trailing.push_back(0);
    EXPECT_THROW(decode_frame(trailing), Error);
  }
}

TEST(Wire, ResponseTilePayloadMustMatchExtents) {
  // A response whose tile payload disagrees with the declared extents is
  // corrupt even if the frame checksum was recomputed.
  ResponseMsg resp;
  resp.request_id = 1;
  resp.has_c = true;
  resp.c_tiles.emplace_back(1, Tile(2, 2));
  Frame frame = encode_response(resp);
  frame.payload.pop_back();
  EXPECT_THROW(decode_response(frame), Error);
}

TEST(Wire, ServiceCtlCounterLengthBombIsRejected) {
  // A counter count that exceeds the remaining payload must be rejected
  // before any allocation sized by it.
  ServiceCtlMsg msg;
  msg.op = ServiceCtlOp::kMetricsReply;
  msg.counters = {1, 2};
  Frame frame = encode_service_ctl(msg);
  // The count field sits right after op (u8) + rank (u32).
  std::uint32_t huge = 0x10000000u;
  std::memcpy(frame.payload.data() + 5, &huge, sizeof huge);
  EXPECT_THROW(decode_service_ctl(frame), Error);
}

TEST(Wire, BcastRoundTripsBitwise) {
  Rng rng(29);
  for (int trial = 0; trial < 30; ++trial) {
    const Index rows = static_cast<Index>(rng.uniform_int(1, 40));
    const Index cols = static_cast<Index>(rng.uniform_int(1, 40));
    Tile tile(rows, cols);
    tile.fill_random(rng);

    BcastTileMsg msg;
    msg.key = (static_cast<std::uint64_t>(trial) << 32) | 5u;
    msg.algo = (trial % 2 == 0) ? BcastAlgorithm::kTree
                                : BcastAlgorithm::kRing;
    msg.root = static_cast<std::uint32_t>(trial % 3);
    msg.parts = {0, 1, 2, static_cast<std::uint32_t>(5 + trial)};
    msg.tile = Tile::view(tile.data(), rows, cols);

    const Frame frame = encode_bcast(msg);
    EXPECT_EQ(frame.type, FrameType::kBcast);
    const std::vector<std::uint8_t> bytes = encode_frame(frame);
    const BcastTileMsg got = decode_bcast(decode_frame(bytes));

    EXPECT_EQ(got.key, msg.key);
    EXPECT_EQ(got.algo, msg.algo);
    EXPECT_EQ(got.root, msg.root);
    EXPECT_EQ(got.parts, msg.parts);
    ASSERT_EQ(got.tile.rows(), rows);
    ASSERT_EQ(got.tile.cols(), cols);
    EXPECT_EQ(std::memcmp(got.tile.data(), tile.data(), tile.bytes()), 0);

    // A relay retypes the payload verbatim as kBcastFwd (never
    // re-serializes); the forwarded frame must decode identically.
    const Frame fwd{FrameType::kBcastFwd, frame.payload};
    const BcastTileMsg relayed =
        decode_bcast(decode_frame(encode_frame(fwd)));
    EXPECT_EQ(relayed.key, msg.key);
    EXPECT_EQ(relayed.parts, msg.parts);
    EXPECT_EQ(
        std::memcmp(relayed.tile.data(), tile.data(), tile.bytes()), 0);
  }
}

TEST(Wire, BcastFramesRejectCorruptionAndTruncation) {
  Rng rng(31);
  Tile tile(6, 9);
  tile.fill_random(rng);
  BcastTileMsg msg;
  msg.key = 77;
  msg.algo = BcastAlgorithm::kTree;
  msg.root = 1;
  msg.parts = {0, 1, 3};
  msg.tile = Tile::view(tile.data(), tile.rows(), tile.cols());
  const std::vector<std::uint8_t> good = encode_frame(encode_bcast(msg));

  for (std::size_t pos = 0; pos < good.size();
       pos += 1 + good.size() / 64) {
    std::vector<std::uint8_t> bad = good;
    bad[pos] ^= 0x40;
    EXPECT_THROW(decode_frame(bad), Error) << "at byte " << pos;
  }
  for (std::size_t len = 0; len < good.size();
       len += 1 + good.size() / 64) {
    EXPECT_THROW(decode_frame(good.data(), len), Error) << "len " << len;
  }
}

TEST(Wire, BcastParticipantCountBombIsRejected) {
  // A forged participant count larger than the remaining payload must be
  // rejected before any allocation sized by it. The count sits after
  // key (u64) + algo (u8) + root (u32).
  Tile tile(2, 2);
  BcastTileMsg msg;
  msg.key = 1;
  msg.root = 0;
  msg.parts = {0, 1};
  msg.tile = Tile::view(tile.data(), 2, 2);
  Frame frame = encode_bcast(msg);
  std::uint32_t huge = 0x3fffffffu;
  std::memcpy(frame.payload.data() + 13, &huge, sizeof huge);
  EXPECT_THROW(decode_bcast(frame), Error);
}

TEST(Wire, BcastTilePayloadMustMatchExtents) {
  Tile tile(3, 4);
  BcastTileMsg msg;
  msg.key = 2;
  msg.root = 0;
  msg.parts = {0, 2};
  msg.tile = Tile::view(tile.data(), 3, 4);
  Frame frame = encode_bcast(msg);
  frame.payload.pop_back();
  EXPECT_THROW(decode_bcast(frame), Error);
}

TEST(Wire, BcastRejectsMalformedHeaders) {
  Tile tile(2, 2);
  const auto make = [&](BcastAlgorithm algo, std::uint32_t root,
                        std::vector<std::uint32_t> parts) {
    BcastTileMsg msg;
    msg.key = 9;
    msg.algo = algo;
    msg.root = root;
    msg.parts = std::move(parts);
    msg.tile = Tile::view(tile.data(), 2, 2);
    return encode_bcast(msg);
  };

  // Root absent from the participant list.
  EXPECT_THROW(decode_bcast(make(BcastAlgorithm::kTree, 7, {0, 1})),
               Error);
  // Participants must be strictly ascending (no duplicates, no swaps).
  EXPECT_THROW(decode_bcast(make(BcastAlgorithm::kTree, 1, {1, 1})),
               Error);
  EXPECT_THROW(decode_bcast(make(BcastAlgorithm::kTree, 2, {2, 0})),
               Error);
  // Fewer than two participants is not a broadcast.
  EXPECT_THROW(decode_bcast(make(BcastAlgorithm::kRing, 0, {0})), Error);
  // The unicast algorithm byte never appears on the wire.
  Frame frame = make(BcastAlgorithm::kTree, 0, {0, 1});
  frame.payload[8] = static_cast<std::uint8_t>(BcastAlgorithm::kUnicast);
  EXPECT_THROW(decode_bcast(frame), Error);
  // Only broadcast frame types are accepted.
  const Frame wrong{FrameType::kTile, make(BcastAlgorithm::kTree, 0,
                                           {0, 1}).payload};
  EXPECT_THROW(decode_bcast(wrong), Error);
}

TEST(Wire, ReaderRejectsTruncatedPayloads) {
  WireWriter w;
  w.u32(7);
  WireReader r(w.bytes());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_THROW(r.u64(), Error);  // nothing left

  WireWriter w2;
  w2.u64(1);
  w2.u64(2);
  WireReader r2(w2.bytes());
  r2.u64();
  EXPECT_THROW(r2.finish(), Error);  // trailing bytes flagged
}

}  // namespace
}  // namespace bstc::net
