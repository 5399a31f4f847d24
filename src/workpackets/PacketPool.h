//===- PacketPool.h - Occupancy-classified packet sub-pools -----*- C++ -*-===//
///
/// \file
/// The global work-packet pool (Sections 4.1-4.3).
///
/// Packets circulate between threads through sub-pools classified by
/// occupancy:
///   - Empty:       0 entries
///   - Non-empty:   less than 50% full
///   - Almost full: at least 50% full (including totally full)
///   - Deferred:    packets holding objects whose allocation bits were
///                  not yet visible to a tracer (Section 5.2); these do
///                  not circulate until redistributeDeferred() is called.
///
/// Each sub-pool is a lock-free Treiber stack of packet indices; the
/// head word carries a monotonically increasing tag to defeat ABA (the
/// paper cites the z/Architecture unique-ID technique). Each sub-pool
/// keeps an approximate packet counter, updated after each put/get, and
/// tracing termination is detected when the Empty pool's counter equals
/// the total number of packets (Section 4.3).
///
//===----------------------------------------------------------------------===//

#ifndef CGC_WORKPACKETS_PACKETPOOL_H
#define CGC_WORKPACKETS_PACKETPOOL_H

#include "support/Annotations.h"
#include "support/Atomics.h"
#include "support/FaultInjector.h"
#include "workpackets/WorkPacket.h"

#include <atomic>
#include <cstdint>
#include <memory>

namespace cgc {

class GcObserver;

/// Why a packet acquire handed back nullptr (the typed status of the
/// pool-exhaustion path — callers used to have to guess from context).
enum class PacketAcquireStatus : uint8_t {
  /// A packet was returned.
  Ok,
  /// No eligible packet exists in any searched sub-pool: genuine
  /// exhaustion; the caller must take the overflow/deferral fallback.
  Exhausted,
  /// Fault injection denied the acquire (chaos mode); the pool itself
  /// may hold packets.
  Injected
};

/// Approximate per-sub-pool packet counts (observability gauges; the
/// counters trail the stack operations, so a racing snapshot can be
/// momentarily off by the number of in-flight put/get operations).
struct PacketPoolOccupancy {
  uint32_t Empty = 0;
  uint32_t NonEmpty = 0;
  uint32_t AlmostFull = 0;
  uint32_t Deferred = 0;
};

/// Aggregate statistics for the load-balancing evaluation (Section 6.3).
struct PacketPoolStats {
  /// CAS/atomic synchronization operations spent on get/put.
  uint64_t SyncOps = 0;
  /// Number of get operations denied by fault injection.
  uint64_t InjectedGets = 0;
  /// High-water mark of packets simultaneously busy: held by a thread
  /// or sitting non-empty in a sub-pool (the paper's upper bound on the
  /// memory the mechanism needs).
  uint64_t PacketsInUseWatermark = 0;
  /// High-water mark of queued entries (lower bound on needed memory).
  uint64_t SlotsInUseWatermark = 0;
  /// Number of get operations that found no packet.
  uint64_t FailedGets = 0;
};

/// The shared pool of work packets.
class PacketPool {
public:
  /// Creates \p NumPackets empty packets, all in the Empty sub-pool.
  /// \p FI (optional) arms the pool's fault-injection sites; \p Obs
  /// (optional) receives packet get/put/transition events.
  explicit PacketPool(uint32_t NumPackets, FaultInjector *FI = nullptr,
                      GcObserver *Obs = nullptr);

  PacketPool(const PacketPool &) = delete;
  PacketPool &operator=(const PacketPool &) = delete;

  /// Total number of packets.
  uint32_t numPackets() const { return NumPackets; }

  /// Gets an input packet: highest-occupancy sub-pool first (Almost full,
  /// then Non-empty). Returns nullptr when no tracing work is available;
  /// \p Status (optional) says whether that was genuine exhaustion or an
  /// injected fault.
  WorkPacket *getInput(PacketAcquireStatus *Status = nullptr);

  /// Gets an output packet: lowest-occupancy sub-pool first (Empty, then
  /// Non-empty, then Almost full — which may hand back a full packet, a
  /// rare case the caller treats as overflow). Returns nullptr when no
  /// packet is available at all; \p Status reports why.
  WorkPacket *getOutput(PacketAcquireStatus *Status = nullptr);

  /// Gets a guaranteed-empty packet (deferred-object side packet).
  /// Returns nullptr when the Empty sub-pool is drained; \p Status
  /// reports why — the caller takes the mark-and-dirty-card fallback.
  WorkPacket *getEmpty(PacketAcquireStatus *Status = nullptr);

  /// Returns \p Packet to the sub-pool matching its occupancy. Performs
  /// the Section 5.1 publish fence when the packet carries entries.
  void put(WorkPacket *Packet);

  /// Parks \p Packet in the Deferred sub-pool (Section 5.2).
  void putDeferred(WorkPacket *Packet);

  /// Moves every Deferred packet back into circulation so deferred
  /// objects get another chance to be traced. Returns packets moved.
  size_t redistributeDeferred();

  /// Whether any packets are parked in the Deferred sub-pool.
  bool hasDeferred() const {
    return DeferredCount.load(std::memory_order_relaxed) != 0;
  }

  /// Termination test: every packet is empty and in the Empty sub-pool
  /// (up to the benign counter races discussed in Section 4.3).
  bool allPacketsEmptyAndIdle() const {
    return EmptyCount.load(std::memory_order_acquire) == NumPackets;
  }

  /// Approximate number of packets currently available as input work.
  size_t approxInputPackets() const {
    return NonEmptyCount.load(std::memory_order_relaxed) +
           AlmostFullCount.load(std::memory_order_relaxed);
  }

  /// Approximate sub-pool occupancy snapshot (observability gauges).
  PacketPoolOccupancy occupancy() const {
    PacketPoolOccupancy O;
    O.Empty = EmptyCount.load(std::memory_order_relaxed);
    O.NonEmpty = NonEmptyCount.load(std::memory_order_relaxed);
    O.AlmostFull = AlmostFullCount.load(std::memory_order_relaxed);
    O.Deferred = DeferredCount.load(std::memory_order_relaxed);
    return O;
  }

  /// Snapshot of the accumulated statistics.
  PacketPoolStats stats() const;

  /// Zeroes statistics (watermarks and counters).
  void resetStats();

  /// Asserts every packet is back and empty, and resets per-cycle state.
  /// Called between collection cycles in tests.
  bool verifyAllReturned() const;

private:
  /// Tagged head of a Treiber stack: low 32 bits = index + 1 (0 = empty),
  /// high 32 bits = ABA tag.
  using TaggedHead = uint64_t;

  static constexpr uint32_t headIndex(TaggedHead H) {
    return static_cast<uint32_t>(H & 0xffffffffu);
  }
  static TaggedHead makeHead(uint32_t IndexPlus1, uint32_t Tag) {
    return (static_cast<uint64_t>(Tag) << 32) | IndexPlus1;
  }

  struct SubPool {
    CGC_ATOMIC_DOC("Treiber head; tagged CAS by all threads, Section 4.1")
    std::atomic<TaggedHead> Head{0};
  };

  enum SubPoolKind { SPEmpty, SPNonEmpty, SPAlmostFull, SPDeferred };

  void pushTo(SubPool &SP, WorkPacket *Packet);
  WorkPacket *popFrom(SubPool &SP);

  std::atomic<uint32_t> &counterFor(SubPoolKind Kind) {
    switch (Kind) {
    case SPEmpty:
      return EmptyCount;
    case SPNonEmpty:
      return NonEmptyCount;
    case SPAlmostFull:
      return AlmostFullCount;
    case SPDeferred:
      return DeferredCount;
    }
    __builtin_unreachable();
  }

  SubPoolKind classify(const WorkPacket *Packet) const {
    if (Packet->empty())
      return SPEmpty;
    return Packet->almostFull() ? SPAlmostFull : SPNonEmpty;
  }

  WorkPacket *takeFrom(SubPoolKind Kind);
  void noteGotPacket(const WorkPacket *Packet);
  void notePutPacket(const WorkPacket *Packet);

  /// True when fault injection denies this acquire; records the typed
  /// status and the statistics.
  bool injectAcquireFault(FaultSite Site, PacketAcquireStatus *Status);

  uint32_t NumPackets;
  std::unique_ptr<WorkPacket[]> Packets;
  FaultInjector *FI;
  GcObserver *Obs;

  // Heads and counters below are written by every tracing thread on
  // every get/put. The pads keep them off the lines of the read-mostly
  // fields above (Packets is read on every pop) and of whatever follows
  // the pool, wherever the pool lands in its owner.
  char ReadMostlyPad[CacheLineBytes];
  SubPool Empty, NonEmpty, AlmostFull, Deferred;
  /// Sub-pool counters trail the stack operations (updated after each
  /// push/pop), so they race benignly with them — exactly the Section
  /// 4.3 design. The Empty counter's acquire read is the termination
  /// test; see tests/packet_model_check.cpp for why the trailing
  /// updates cannot overstate it into a false termination.
  CGC_ATOMIC_DOC("all threads add/sub after push/pop; acquire termination read")
  std::atomic<uint32_t> EmptyCount{0};
  CGC_ATOMIC_DOC("all threads add/sub after push/pop; relaxed approx reads")
  std::atomic<uint32_t> NonEmptyCount{0};
  CGC_ATOMIC_DOC("all threads add/sub after push/pop; relaxed approx reads")
  std::atomic<uint32_t> AlmostFullCount{0};
  CGC_ATOMIC_DOC("all threads add/sub after push/pop; relaxed hasDeferred read")
  std::atomic<uint32_t> DeferredCount{0};

  // Statistics.
  CGC_ATOMIC_DOC("relaxed counter, all threads; snapshot in stats()")
  std::atomic<uint64_t> SyncOps{0};
  CGC_ATOMIC_DOC("relaxed counter, all threads; snapshot in stats()")
  std::atomic<uint64_t> FailedGets{0};
  CGC_ATOMIC_DOC("relaxed counter, all threads; snapshot in stats()")
  std::atomic<uint64_t> InjectedGets{0};
  CGC_ATOMIC_DOC("relaxed counter, all threads; feeds the busy watermark")
  std::atomic<uint32_t> PacketsInUse{0};
  CGC_ATOMIC_DOC("monotonic max via atomicStoreMax, relaxed")
  std::atomic<uint64_t> PacketsInUseWatermark{0};
  CGC_ATOMIC_DOC("relaxed counter, all threads; feeds the slots watermark")
  std::atomic<int64_t> SlotsQueued{0};
  CGC_ATOMIC_DOC("monotonic max via atomicStoreMax, relaxed")
  std::atomic<uint64_t> SlotsWatermark{0};
  char TrailingPad[CacheLineBytes];
};

} // namespace cgc

#endif // CGC_WORKPACKETS_PACKETPOOL_H
