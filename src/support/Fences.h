//===- Fences.h - Instrumented memory fences --------------------*- C++ -*-===//
///
/// \file
/// Instrumented memory-fence entry points for the collector.
///
/// The paper (Section 5) keeps weak-ordering correctness while issuing as
/// few multi-cycle fence instructions as possible: one fence per block of
/// small objects allocated, one fence per work packet published, one fence
/// per group of objects examined by a tracer, and zero fences in the write
/// barrier. On the reproduction host (x86/TSO) a fence's reordering effect
/// cannot be observed, so in addition to issuing a real
/// std::atomic_thread_fence we count every fence per call-site category.
/// bench/ablation_fences compares these counts with the naive scheme's
/// per-operation fences, which it derives from the same run, to reproduce
/// the paper's claim ("significantly fewer fences") quantitatively.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_SUPPORT_FENCES_H
#define CGC_SUPPORT_FENCES_H

#include <array>
#include <atomic>
#include <cstdint>

namespace cgc {

/// Why a fence was issued. Each enumerator is one of the batching points
/// described in Section 5 of the paper.
enum class FenceSite : unsigned {
  /// One fence when a full allocation cache publishes its allocation bits
  /// (Section 5.2, mutator side, step 2).
  AllocCacheFlush,
  /// One fence after a tracer has sampled the allocation bits of all
  /// entries of an input packet (Section 5.2, tracer side, step 3).
  TracerBatch,
  /// One fence before an output work packet is returned to the shared
  /// pool (Section 5.1).
  PacketPublish,
  /// One fence per mutator acknowledged during the card-table cleaning
  /// handshake (Section 5.3, step 2).
  CardTableHandshake,
  /// Fences that are part of stopping/starting the world.
  StopTheWorld,
  NumSites
};

/// Returns a human-readable name for \p Site.
const char *fenceSiteName(FenceSite Site);

/// Global per-site fence counters. Relaxed increments; read by benches.
class FenceCounters {
public:
  static constexpr unsigned NumSites =
      static_cast<unsigned>(FenceSite::NumSites);

  /// Adds one issued fence at \p Site.
  void record(FenceSite Site) {
    Counts[static_cast<unsigned>(Site)].fetch_add(1,
                                                  std::memory_order_relaxed);
  }

  /// Counts recorded fences at \p Site since the last reset.
  uint64_t count(FenceSite Site) const {
    return Counts[static_cast<unsigned>(Site)].load(
        std::memory_order_relaxed);
  }

  /// Sum over every site.
  uint64_t totalRealFences() const;

  /// Zeroes all counters.
  void reset();

private:
  std::array<std::atomic<uint64_t>, NumSites> Counts{};
};

/// Process-wide fence counters.
FenceCounters &fenceCounters();

/// Issues a sequentially consistent hardware fence and records it under
/// \p Site.
inline void fence(FenceSite Site) {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  fenceCounters().record(Site);
}

} // namespace cgc

#endif // CGC_SUPPORT_FENCES_H
