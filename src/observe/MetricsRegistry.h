//===- MetricsRegistry.h - Pause histograms, request counters ---*- C++ -*-===//
///
/// \file
/// Aggregated metrics backing the paper's figures: log-scale pause-time
/// histograms (Figures 1-2 report pause distributions; we track
/// p50/p95/p99/max) and open-loop request counters. Per-cycle gauges
/// (Table 1's K actual, floating garbage) are derived from the one
/// per-cycle record, CycleRecord, by GcAggregates::compute.
///
/// PauseHistogram is HDR-style: 8 sub-buckets per power-of-two octave
/// above 1024 ns, 8 linear 128 ns buckets below. Relative quantile error
/// is bounded at 12.5% (one sub-bucket), and quantile(1.0) returns the
/// exact recorded maximum.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_OBSERVE_METRICSREGISTRY_H
#define CGC_OBSERVE_METRICSREGISTRY_H

#include "support/Annotations.h"
#include "support/Atomics.h"

#include <atomic>
#include <cstdint>

namespace cgc {

/// Fixed-bucket log-scale histogram of nanosecond durations. record()
/// is lock-free (one relaxed fetch_add plus a store-max); quantile
/// queries walk the bucket array and may race recording, returning a
/// slightly stale but internally consistent-enough answer for
/// reporting (tests query quiescent histograms).
class PauseHistogram {
public:
  /// 8 linear buckets below 1024 ns, then 8 sub-buckets per octave up
  /// to 2^41 ns (~36 min), plus one overflow bucket.
  static constexpr uint32_t SubBuckets = 8;
  static constexpr uint32_t BaseShift = 10;     // first octave at 1024 ns
  static constexpr uint32_t MaxOctaves = 32;    // up to ~2^41 ns
  static constexpr uint32_t NumBuckets =
      SubBuckets + MaxOctaves * SubBuckets + 1; // + overflow

  /// Bucket index for a value (exposed so tests can assert the
  /// bucket-equality contract: bucketFor(quantile(q)) equals the bucket
  /// of the reference-sorted quantile).
  static uint32_t bucketFor(uint64_t Nanos);

  /// Inclusive lower bound of a bucket, the value quantiles report.
  static uint64_t bucketLowerBound(uint32_t Bucket);

  /// Records one duration. Lock-free, any thread.
  void record(uint64_t Nanos) {
    Counts[bucketFor(Nanos)].fetch_add(1, std::memory_order_relaxed);
    TotalCount.fetch_add(1, std::memory_order_relaxed);
    TotalNanos.fetch_add(Nanos, std::memory_order_relaxed);
    atomicStoreMax(MaxNanos, Nanos);
  }

  /// Number of recorded samples.
  uint64_t count() const { return TotalCount.load(std::memory_order_relaxed); }

  /// Sum of all recorded durations.
  uint64_t totalNanos() const {
    return TotalNanos.load(std::memory_order_relaxed);
  }

  /// The exact largest recorded value (0 when empty).
  uint64_t max() const { return MaxNanos.load(std::memory_order_relaxed); }

  /// Value at quantile \p Q in [0,1]: the lower bound of the bucket
  /// holding the ceil(Q * count)-th sample, except quantile(1.0) which
  /// returns the exact max. 0 when empty.
  uint64_t quantile(double Q) const;

  /// Mean of recorded durations (0 when empty).
  double meanNanos() const;

private:
  CGC_ATOMIC_DOC("relaxed per-bucket sample counters")
  std::atomic<uint64_t> Counts[NumBuckets] = {};
  CGC_ATOMIC_DOC("relaxed total sample count")
  std::atomic<uint64_t> TotalCount{0};
  CGC_ATOMIC_DOC("relaxed sum of samples for mean()")
  std::atomic<uint64_t> TotalNanos{0};
  CGC_ATOMIC_DOC("monotonic max via atomicStoreMax")
  std::atomic<uint64_t> MaxNanos{0};
};

/// Which pause/duration distribution a sample belongs to.
enum class PauseMetric : uint8_t {
  /// Full stop-the-world pause of a cycle's final phase (Figures 1-2).
  TotalPause = 0,
  /// Final card-cleaning pass inside the pause.
  FinalCardClean,
  /// Final mark / termination trace inside the pause.
  FinalMark,
  /// In-pause sweep (non-lazy) or sweep-slice durations.
  Sweep,
  /// One mutator incremental-tracing quantum.
  IncQuantum,
  /// Stop-the-world entry latency: request to all-threads-parked
  /// (cooperation health; a stalling mutator shows up here first).
  StwEntry,
  /// Ragged fence-handshake completion latency (successful handshakes
  /// only; timeouts are counted separately by the registry).
  FenceHandshake,
  /// End-to-end request latency of a server workload, measured from the
  /// request's *scheduled* start time on an open-loop arrival schedule
  /// (DESIGN.md §15) — a request whose slot was delayed by a pause is
  /// charged the queueing it caused, so coordinated omission is
  /// accounted for rather than hidden.
  RequestLatency,
  /// Pure service time of the same requests (actual send to completion,
  /// no queueing): the gap between this and RequestLatency is the
  /// scheduling delay GC pauses impose on an open-loop client.
  RequestService,
  NumMetrics
};

/// Stable export key for a pause metric.
const char *pauseMetricName(PauseMetric Metric);

/// Request-level counters for the open-loop server workloads
/// (DESIGN.md §15). Recording is lock-free relaxed adds from client
/// threads; snapshot() reads racily (reports read quiescent counters).
struct RequestCounters {
  CGC_ATOMIC_DOC("clients add relaxed; reporting reads racily")
  std::atomic<uint64_t> Scheduled{0};
  CGC_ATOMIC_DOC("clients add relaxed; reporting reads racily")
  std::atomic<uint64_t> Completed{0};
  CGC_ATOMIC_DOC("clients add relaxed; reporting reads racily")
  std::atomic<uint64_t> Failed{0};
  /// Requests that missed their scheduled slot (the client was still
  /// serving an earlier request when the slot came due).
  CGC_ATOMIC_DOC("clients add relaxed; reporting reads racily")
  std::atomic<uint64_t> LateStarts{0};
  /// Latency samples dropped because a client's pre-sized buffer
  /// filled (quantiles then under-sample the tail; report it).
  CGC_ATOMIC_DOC("clients add relaxed; reporting reads racily")
  std::atomic<uint64_t> DroppedSamples{0};

  /// Plain-value snapshot for reporting.
  struct Snapshot {
    uint64_t Scheduled = 0;
    uint64_t Completed = 0;
    uint64_t Failed = 0;
    uint64_t LateStarts = 0;
    uint64_t DroppedSamples = 0;
  };
  Snapshot snapshot() const {
    Snapshot S;
    S.Scheduled = Scheduled.load(std::memory_order_relaxed);
    S.Completed = Completed.load(std::memory_order_relaxed);
    S.Failed = Failed.load(std::memory_order_relaxed);
    S.LateStarts = LateStarts.load(std::memory_order_relaxed);
    S.DroppedSamples = DroppedSamples.load(std::memory_order_relaxed);
    return S;
  }
};

/// Owns every histogram and the request counters for one collector
/// instance. Recording is lock-free.
class MetricsRegistry {
public:
  /// The histogram for \p Metric (always valid).
  PauseHistogram &histogram(PauseMetric Metric) {
    return Histograms[static_cast<size_t>(Metric)];
  }
  const PauseHistogram &histogram(PauseMetric Metric) const {
    return Histograms[static_cast<size_t>(Metric)];
  }

  /// Per-request counters (open-loop server workloads).
  RequestCounters &requests() { return Requests; }
  const RequestCounters &requests() const { return Requests; }

private:
  PauseHistogram Histograms[static_cast<size_t>(PauseMetric::NumMetrics)];
  RequestCounters Requests;
};

} // namespace cgc

#endif // CGC_OBSERVE_METRICSREGISTRY_H
