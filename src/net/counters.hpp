#pragma once

/// \file counters.hpp
/// Wire-level traffic counters.
///
/// Every socket send/receive and every connect retry updates a
/// WireCounters instance; NetTransport threads its own, and the
/// process-wide registry feeds ServiceMetrics so `bstc_cli serve-batch`
/// surfaces network activity next to the serving counters. All counters
/// are monotonic and lock-free.

#include <atomic>
#include <cstdint>

namespace bstc::net {

/// Plain-value snapshot (copyable, comparable in tests).
struct WireCounterSnapshot {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;      ///< on-wire bytes incl. frame framing
  std::uint64_t bytes_received = 0;  ///< on-wire bytes incl. frame framing
  std::uint64_t connect_retries = 0; ///< failed attempts that were retried
  std::uint64_t reconnects = 0;      ///< connections needing >= 1 retry
  /// A-broadcast payload bytes this rank injected, split by hop class
  /// (sender-side accounting: the root and every relay count each hop
  /// they originate, so summing ranks counts every hop exactly once).
  std::uint64_t a_payload_inter_bytes = 0;
  std::uint64_t a_payload_intra_bytes = 0;
  std::uint64_t shm_payload_bytes = 0;  ///< intra slice served via the ring
  std::uint64_t bcast_frames_sent = 0;      ///< kBcast roots
  std::uint64_t bcast_fwd_frames_sent = 0;  ///< kBcastFwd relays
  std::uint64_t shm_publishes = 0;          ///< staging-ring publish calls

  /// What accrued since `base`, an earlier snapshot of the same counters.
  /// A rank reports its own traffic this way: a forked process inherits
  /// its parent's totals, and threaded users share one instance, so the
  /// process-wide counters are never reset.
  WireCounterSnapshot since(const WireCounterSnapshot& base) const {
    WireCounterSnapshot d;
    d.frames_sent = frames_sent - base.frames_sent;
    d.frames_received = frames_received - base.frames_received;
    d.bytes_sent = bytes_sent - base.bytes_sent;
    d.bytes_received = bytes_received - base.bytes_received;
    d.connect_retries = connect_retries - base.connect_retries;
    d.reconnects = reconnects - base.reconnects;
    d.a_payload_inter_bytes =
        a_payload_inter_bytes - base.a_payload_inter_bytes;
    d.a_payload_intra_bytes =
        a_payload_intra_bytes - base.a_payload_intra_bytes;
    d.shm_payload_bytes = shm_payload_bytes - base.shm_payload_bytes;
    d.bcast_frames_sent = bcast_frames_sent - base.bcast_frames_sent;
    d.bcast_fwd_frames_sent =
        bcast_fwd_frames_sent - base.bcast_fwd_frames_sent;
    d.shm_publishes = shm_publishes - base.shm_publishes;
    return d;
  }
};

/// Thread-safe monotonic counters.
class WireCounters {
 public:
  void add_frame_sent(std::uint64_t wire_bytes) {
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(wire_bytes, std::memory_order_relaxed);
  }
  void add_frame_received(std::uint64_t wire_bytes) {
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    bytes_received_.fetch_add(wire_bytes, std::memory_order_relaxed);
  }
  void add_connect_retry() {
    connect_retries_.fetch_add(1, std::memory_order_relaxed);
  }
  void add_reconnect() {
    reconnects_.fetch_add(1, std::memory_order_relaxed);
  }
  void add_a_payload(bool internode, std::uint64_t payload_bytes) {
    (internode ? a_payload_inter_bytes_ : a_payload_intra_bytes_)
        .fetch_add(payload_bytes, std::memory_order_relaxed);
  }
  void add_shm_payload(std::uint64_t payload_bytes) {
    shm_payload_bytes_.fetch_add(payload_bytes, std::memory_order_relaxed);
  }
  void add_bcast_frame_sent(bool forwarded) {
    (forwarded ? bcast_fwd_frames_sent_ : bcast_frames_sent_)
        .fetch_add(1, std::memory_order_relaxed);
  }
  void add_shm_publish() {
    shm_publishes_.fetch_add(1, std::memory_order_relaxed);
  }

  WireCounterSnapshot snapshot() const {
    WireCounterSnapshot s;
    s.frames_sent = frames_sent_.load(std::memory_order_relaxed);
    s.frames_received = frames_received_.load(std::memory_order_relaxed);
    s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
    s.bytes_received = bytes_received_.load(std::memory_order_relaxed);
    s.connect_retries = connect_retries_.load(std::memory_order_relaxed);
    s.reconnects = reconnects_.load(std::memory_order_relaxed);
    s.a_payload_inter_bytes =
        a_payload_inter_bytes_.load(std::memory_order_relaxed);
    s.a_payload_intra_bytes =
        a_payload_intra_bytes_.load(std::memory_order_relaxed);
    s.shm_payload_bytes = shm_payload_bytes_.load(std::memory_order_relaxed);
    s.bcast_frames_sent = bcast_frames_sent_.load(std::memory_order_relaxed);
    s.bcast_fwd_frames_sent =
        bcast_fwd_frames_sent_.load(std::memory_order_relaxed);
    s.shm_publishes = shm_publishes_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> connect_retries_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> a_payload_inter_bytes_{0};
  std::atomic<std::uint64_t> a_payload_intra_bytes_{0};
  std::atomic<std::uint64_t> shm_payload_bytes_{0};
  std::atomic<std::uint64_t> bcast_frames_sent_{0};
  std::atomic<std::uint64_t> bcast_fwd_frames_sent_{0};
  std::atomic<std::uint64_t> shm_publishes_{0};
};

/// The process-wide counter instance. Every net component that is not
/// given an explicit WireCounters records here; ServiceMetrics snapshots
/// it. (A worker process naturally reports its own traffic only.)
WireCounters& global_wire_counters();

}  // namespace bstc::net
