//===- perfbench.cpp - Repository benchmark program -----------------------===//
///
/// \file
/// Runs one named workload of the repository benchmark through the
/// collector's public API (GcHeap, KvStore, OpenLoopDriver,
/// WarehouseWorkload) and prints one JSON document holding every
/// quantity the run measured. perfbench/run.py builds this program, runs
/// it, applies the correctness gate and the GC-activity floor, and
/// reports the metrics named in BENCHMARK.json. Nothing under src/ is
/// instrumented: each layer is measured from outside, by timing the
/// calls made into it and by reading the counters and per-cycle records
/// the collector already exports.
///
/// Usage:
///   perfbench --workload warehouse|kv|kv-lazy --seed N --seconds S
///             [--observe 0|1] [--spans FILE]
///
/// --observe 1 is the traced run: GcOptions::Observe on, plus the
/// program's own spans, summarised as a self-time table on stderr and, with
/// --spans, written out as CSV when the run ends.
///
//===----------------------------------------------------------------------===//

#include "runtime/GcHeap.h"
#include "support/Random.h"
#include "support/Timing.h"
#include "workloads/KvServer.h"
#include "workloads/OpenLoop.h"
#include "workloads/Warehouse.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace cgc;

namespace {

//===----------------------------------------------------------------------===//
// Workload definitions
//===----------------------------------------------------------------------===//

/// One named workload. Sizes are fixed here, not on the command line, so
/// every run of a name measures the same configuration.
struct WorkloadSpec {
  const char *Name;
  /// Open-loop KV service; otherwise closed-loop warehouse transactions.
  bool Kv;
  bool LazySweep;
  size_t HeapBytes;
  /// Aggregate offered load of the open-loop clients: the KV clients, or
  /// the warehouse's latency probe.
  double OfferedPerSec;
  unsigned Clients;
  /// KV key space; setup prefills every key.
  size_t Keys;
};

constexpr WorkloadSpec Workloads[] = {
    {"warehouse", false, false, 48u << 20, 1000, 1, 0},
    {"kv", true, false, 48u << 20, 50000, 2, 40960},
    {"kv-lazy", true, true, 48u << 20, 50000, 2, 40960},
};

/// Warehouse mutator threads and live share of the heap (the top point of
/// bench/fig1_specjbb_pauses). One mutator, the spinning probe and the
/// background tracer keep three of the host's four CPUs busy and leave
/// one for the host. With two mutators the probe either woke late from
/// its sleeps or, spinning, was descheduled; in a slow host regime half
/// of its requests then came back late, and req_p50_us jumped from a few
/// us of service time to tens of us of queueing.
constexpr unsigned WarehouseThreads = 1;
constexpr double WarehouseOccupancy = 0.6;
/// Lines in the order each warehouse probe request builds. About a
/// quarter of the probe's requests are due during a pause, so its median
/// is the upper quartile of the on-time ones; 64 lines make their service
/// time the bulk of the latency and keep that quartile close to the
/// median (with 8 lines it was at 1.5 us, right below the knee).
constexpr uint16_t ProbeLines = 64;

/// KV request mix in percent: gets, deletes, and sets for the rest.
constexpr uint64_t GetPercent = 45;
constexpr uint64_t DelPercent = 5;
constexpr size_t MinValueBytes = 16;
constexpr size_t MaxValueBytes = 1024;
/// Unmeasured KV traffic between setup and the measured window: after
/// prefill the pacer runs cycles back to back for about two seconds
/// before it settles.
constexpr uint64_t KvWarmupMs = 3000;

/// A request misses the service-level objective when it fails or
/// completes later than this after its scheduled start.
constexpr double SloLimitUs = 1000;

/// The latency and pause metrics are medians over this many consecutive
/// slices of the measured window (requests by scheduled start, cycles in
/// completion order). On a shared host, stretches of descheduling lasting
/// seconds doubled a whole run's p99 and pause p90; a stretch that covers
/// fewer than half the slices leaves their median where it was.
constexpr unsigned WindowSlices = 8;

/// Heaps built per run (all but the last torn down again): at least
/// SetupRepeats, and more until SetupMinNanos have passed, then one for
/// the window. setup_s is the median of their setup times. The repeats
/// reuse the memory the allocator got back from the previous heap: the
/// first-touch page faults of fresh memory cost more than the setup work
/// itself, and on a shared host their median moved by up to 38% from one
/// set of runs to the next. Even so, the KV setup switches between about
/// 28 and 47 ms in stretches of a few hundred ms as the host's load
/// changes, so the repeats span three seconds: over one second, the fast
/// stretches made up more than half of the samples in a quarter of the
/// runs, and the run's median jumped to the fast mode.
constexpr unsigned SetupRepeats = 15;
constexpr uint64_t SetupMinNanos = 3000000000;

/// Spin-gap calibration: threads, length, and the clock step that counts
/// as a descheduling gap.
constexpr unsigned CalibrationThreads = 2;
constexpr uint64_t CalibrationNanos = 250000000;
constexpr uint64_t GapThresholdNanos = 20000;

/// Traced runs write every request span slower than the p99 plus every
/// SpanSampleEvery-th one.
constexpr uint64_t SpanSampleEvery = 100;

constexpr double MiB = 1024.0 * 1024.0;

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

/// Nearest-rank quantile of \p V (sorted in place); 0 when empty.
double quantile(std::vector<double> &V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank =
      static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[Rank == 0 ? 0 : Rank - 1];
}

/// Median of \p V (sorted in place), averaging the middle pair; 0 when
/// empty.
double median(std::vector<double> &V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Mid = V.size() / 2;
  return V.size() % 2 ? V[Mid] : (V[Mid - 1] + V[Mid]) / 2;
}

/// Values cut into WindowSlices consecutive slices.
using Slices = std::vector<std::vector<double>>;

/// Median over the non-empty slices of each slice's \p Q quantile.
double sliceQuantile(Slices &S, double Q) {
  std::vector<double> PerSlice;
  for (std::vector<double> &V : S)
    if (!V.empty())
      PerSlice.push_back(quantile(V, Q));
  return median(PerSlice);
}

double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / static_cast<double>(V.size());
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

double nanosToUs(uint64_t Nanos) { return static_cast<double>(Nanos) / 1e3; }

size_t formatKey(size_t Key, char *Buf, size_t BufBytes) {
  return static_cast<size_t>(std::snprintf(Buf, BufBytes, "k%07zu", Key));
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += static_cast<unsigned char>(C) < 0x20 ? ' ' : C;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Spans and per-client state
//===----------------------------------------------------------------------===//

/// The call a request's child span wraps.
enum class OpKind : uint8_t { Get, Set, Del, ProbeOrder, NumKinds };

const char *opName(OpKind K) {
  switch (K) {
  case OpKind::Get:
    return "kv_get";
  case OpKind::Set:
    return "kv_set";
  case OpKind::Del:
    return "kv_del";
  case OpKind::ProbeOrder:
    return "probe_order";
  case OpKind::NumKinds:
    break;
  }
  return "?";
}

/// A request's child span around its call into the collector's API; the
/// request itself is OpenLoopDriver's RequestSample with the same sequence
/// number on the same client.
struct OpSpan {
  uint64_t Seq;
  uint64_t Start;
  uint64_t End;
  OpKind Kind;
};

/// A span of the run's own phases (heap creation, prefill, workload,
/// verification). Phases do not nest.
struct PhaseSpan {
  const char *Name;
  const char *Layer;
  uint64_t Start;
  uint64_t End;
};

/// One open-loop client's request stream and bookkeeping. KV clients own
/// disjoint slices of the key space, so each knows exactly which of its
/// keys are present and can check every get and delete result.
struct ClientState {
  explicit ClientState(uint64_t Seed) : Rng(Seed) {}
  Random Rng;
  std::vector<OpSpan> Ops;
  uint64_t AllocFirst = 0;
  uint64_t AllocLast = 0;
  bool Started = false;
  uint64_t Mismatches = 0;

  void noteAllocated(const MutatorContext &Ctx) {
    uint64_t Now = Ctx.BytesAllocated.load(std::memory_order_relaxed);
    if (!Started) {
      AllocFirst = Now;
      Started = true;
    }
    AllocLast = Now;
  }
};

//===----------------------------------------------------------------------===//
// Host record
//===----------------------------------------------------------------------===//

struct SpinGaps {
  double Share = 0;
  double MaxMs = 0;
  uint64_t Count = 0;
};

/// Spins CalibrationThreads threads on the clock and sums every step
/// longer than GapThresholdNanos: how much of a spinning thread's wall
/// time this host takes away, measured before the workload starts.
SpinGaps calibrateSpinGaps() {
  std::vector<uint64_t> Lost(CalibrationThreads), Max(CalibrationThreads),
      Count(CalibrationThreads);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < CalibrationThreads; ++T)
    Threads.emplace_back([&, T] {
      uint64_t Start = nowNanos();
      uint64_t Prev = Start;
      while (Prev - Start < CalibrationNanos) {
        uint64_t Now = nowNanos();
        if (Now - Prev > GapThresholdNanos) {
          Lost[T] += Now - Prev;
          Max[T] = std::max(Max[T], Now - Prev);
          ++Count[T];
        }
        Prev = Now;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  SpinGaps G;
  for (unsigned T = 0; T < CalibrationThreads; ++T) {
    G.Share += static_cast<double>(Lost[T]);
    G.MaxMs = std::max(G.MaxMs, static_cast<double>(Max[T]) / 1e6);
    G.Count += Count[T];
  }
  G.Share /= static_cast<double>(CalibrationNanos) * CalibrationThreads;
  return G;
}

double peakRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

//===----------------------------------------------------------------------===//
// The run
//===----------------------------------------------------------------------===//

/// One heap with its workload state, as setup builds it.
struct Rig {
  std::unique_ptr<GcHeap> Heap;
  MutatorContext *Owner = nullptr;
  std::unique_ptr<KvStore> Store;
  /// Expected presence of every key (KV only).
  std::vector<uint8_t> Present;

  Rig() = default;
  Rig(const Rig &) = delete;
  Rig &operator=(const Rig &) = delete;
  ~Rig() {
    Store.reset();
    if (Owner) {
      Owner->setRoot(0, nullptr);
      Heap->detachThread(*Owner);
    }
  }
};

/// Counters read at the start of the measured window.
struct WindowStart {
  size_t Cycles = 0;
  EscalationCounts Escalations;
  uint64_t LockAcquisitions = 0;
  PacketPoolStats Pool;
  uint64_t StallWarnings = 0;
  uint64_t FenceTimeouts = 0;
};

class Bench {
public:
  Bench(const WorkloadSpec &Spec, uint64_t Seed, unsigned Seconds,
        bool Traced)
      : Spec(Spec), Seed(Seed), Seconds(Seconds), Traced(Traced) {}

  /// Runs setup, the measured window and verification, then prints the
  /// JSON document. Returns the process exit code.
  int run(const char *SpansPath);

private:
  GcOptions options() const;
  OpenLoopConfig schedule() const;
  void addClients(uint64_t SeedBase);
  std::unique_ptr<Rig> setupOnce();
  void openWindow(GcHeap &Heap);
  void closeWindow();
  void runKv(Rig &R);
  void runWarehouse(Rig &R);
  void verify(Rig &R);
  void addMetrics(Rig &R, const std::vector<CycleRecord> &Cycles);
  void addRequestMetrics();
  void addSelfTimes();
  void writeSpans(const char *Path) const;
  void emitJson(const SpinGaps &Gaps) const;

  void phase(const char *Name, const char *Layer, uint64_t Start) {
    Phases.push_back({Name, Layer, Start, nowNanos()});
  }
  void metric(const char *Name, double Value) {
    Metrics.emplace_back(Name, Value);
  }
  void fail(const std::string &Error, uint64_t Count = 1) {
    Failed += Count;
    Errors.push_back(Error);
  }

  const WorkloadSpec &Spec;
  const uint64_t Seed;
  const unsigned Seconds;
  const bool Traced;

  const uint64_t T0 = nowNanos();
  std::vector<PhaseSpan> Phases;
  std::vector<std::pair<std::string, double>> Metrics;
  std::vector<std::string> SelfTimes; // JSON objects
  std::vector<std::string> Errors;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  std::vector<double> SetupSeconds;
  std::vector<double> CreateMs;

  /// The measured window, filled by runKv / runWarehouse.
  WindowStart Before;
  OpenLoopOutcome Requests;
  std::vector<ClientState> Clients;
  double WindowMs = 0;
  double Transactions = 0;
  double BytesAllocated = 0;
  /// Peak resident set when the window closed, less perfbench's own
  /// request and span records.
  double RssPeakMb = 0;
};

GcOptions Bench::options() const {
  GcOptions Opts;
  Opts.Kind = CollectorKind::MostlyConcurrent;
  Opts.HeapBytes = Spec.HeapBytes;
  // Host scaling as bench/fig1 does it: one background tracer, default
  // stop-the-world workers.
  Opts.BackgroundThreads = 1;
  Opts.LazySweep = Spec.LazySweep;
  Opts.Observe = Traced;
  return Opts;
}

/// The measured window's open-loop schedule, seeded from the run's seed.
OpenLoopConfig Bench::schedule() const {
  OpenLoopConfig Load;
  Load.Clients = Spec.Clients;
  Load.OfferedPerSec = Spec.OfferedPerSec;
  Load.Kind = ArrivalKind::Exponential;
  Load.DurationMs = uint64_t(Seconds) * 1000;
  Load.Seed = Seed;
  return Load;
}

/// One ClientState per open-loop client, with request streams seeded
/// from \p SeedBase; traced runs pre-size the span buffers.
void Bench::addClients(uint64_t SeedBase) {
  for (unsigned C = 0; C < Spec.Clients; ++C) {
    Clients.emplace_back(SeedBase + C);
    if (Traced)
      Clients.back().Ops.reserve(static_cast<size_t>(
          Spec.OfferedPerSec / Spec.Clients * Seconds * 1.3 + 1024));
  }
}

std::unique_ptr<Rig> Bench::setupOnce() {
  auto R = std::make_unique<Rig>();
  uint64_t Start = nowNanos();
  R->Heap = GcHeap::create(options());
  phase("setup.create", "runtime", Start);
  CreateMs.push_back(static_cast<double>(nowNanos() - Start) / 1e6);
  if (Spec.Kv) {
    uint64_t PrefillStart = nowNanos();
    R->Owner = &R->Heap->attachThread();
    R->Owner->reserveRoots(1);
    KvStoreConfig Cfg;
    Cfg.Buckets =
        static_cast<unsigned>(std::min<size_t>(Spec.Keys / 2, 60000));
    Cfg.MaxEntries = Spec.Keys + 1; // No eviction: the key model stays exact.
    R->Store = std::make_unique<KvStore>(*R->Heap, *R->Owner, 0, Cfg);
    R->Present.assign(Spec.Keys, 1);
    Random Rng(Seed ^ 0x9bef11u);
    char Key[16];
    for (size_t K = 0; K < Spec.Keys; ++K) {
      size_t Len = formatKey(K, Key, sizeof(Key));
      if (!R->Store->set(*R->Owner, Key, Len,
                         Rng.nextInRange(MinValueBytes, MaxValueBytes),
                         Rng.next()))
        fail("prefill set failed for key " + std::to_string(K));
    }
    phase("setup.prefill", "workloads", PrefillStart);
  }
  SetupSeconds.push_back(static_cast<double>(nowNanos() - Start) / 1e9);
  return R;
}

void Bench::runKv(Rig &R) {
  GcHeap &Heap = *R.Heap;
  KvStore &Store = *R.Store;
  const size_t KeysPerClient = Spec.Keys / Spec.Clients;
  addClients(Seed * 0x2545f4914f6cdd1dULL + 1);
  bool Measuring = false;

  auto Serve = [&](MutatorContext *Ctx, unsigned C, uint64_t Seq) {
    ClientState &S = Clients[C];
    uint64_t Roll = S.Rng.nextBelow(100);
    size_t K = C + Spec.Clients * S.Rng.nextBelow(KeysPerClient);
    char Key[16];
    size_t Len = formatKey(K, Key, sizeof(Key));
    bool Ok = false;
    OpKind Kind;
    uint64_t Start = Traced ? nowNanos() : 0;
    if (Roll < GetPercent) {
      Kind = OpKind::Get;
      Ok = Store.get(Key, Len) == (R.Present[K] ? KvStore::GetResult::Hit
                                                : KvStore::GetResult::Miss);
    } else if (Roll < GetPercent + DelPercent) {
      Kind = OpKind::Del;
      Ok = Store.del(*Ctx, Key, Len) == (R.Present[K] != 0);
      R.Present[K] = 0;
    } else {
      Kind = OpKind::Set;
      size_t Bytes = S.Rng.nextInRange(MinValueBytes, MaxValueBytes);
      Ok = Store.set(*Ctx, Key, Len, Bytes, S.Rng.next());
      if (Ok)
        R.Present[K] = 1;
    }
    if (Traced && Measuring)
      S.Ops.push_back({Seq, Start, nowNanos(), Kind});
    S.Mismatches += !Ok;
    if (Measuring)
      S.noteAllocated(*Ctx);
    return Ok;
  };

  Heap.enterIdle(*R.Owner);
  OpenLoopConfig Warmup = schedule();
  Warmup.DurationMs = KvWarmupMs;
  Warmup.Seed = ~Seed;
  uint64_t Start = nowNanos();
  Attempted += OpenLoopDriver(&Heap, Warmup).run(Serve).Counters.Completed;
  phase("warmup.kv", "workloads", Start);

  openWindow(Heap);
  Measuring = true;
  Start = nowNanos();
  Requests = OpenLoopDriver(&Heap, schedule()).run(Serve);
  closeWindow();
  phase("window.kv", "workloads", Start);
  Heap.exitIdle(*R.Owner);

  WindowMs = Requests.DurationMs;
  Transactions = static_cast<double>(Requests.Counters.Completed);
  Attempted += Requests.Counters.Completed;
  uint64_t Mismatches = 0;
  for (const ClientState &S : Clients) {
    BytesAllocated += static_cast<double>(S.AllocLast - S.AllocFirst);
    Mismatches += S.Mismatches;
  }
  if (Mismatches)
    fail(std::to_string(Mismatches) +
             " requests contradicted the key model (corrupt or wrong get, "
             "failed set, wrong delete)",
         Mismatches);
}

void Bench::runWarehouse(Rig &R) {
  GcHeap &Heap = *R.Heap;
  WarehouseConfig Cfg;
  Cfg.Threads = WarehouseThreads;
  Cfg.DurationMs = uint64_t(Seconds) * 1000;
  Cfg.Seed = Seed;
  Cfg.sizeLiveSet(static_cast<size_t>(WarehouseOccupancy *
                                      static_cast<double>(Spec.HeapBytes)));

  // The latency probe: one open-loop client beside the closed-loop
  // mutator, so the warehouse also reports the request latency a server
  // thread would see. Each request builds a small order (one holder and
  // ProbeLines stamped lines) and reads it back.
  addClients(Seed);
  auto Serve = [&](MutatorContext *Ctx, unsigned C, uint64_t Seq) {
    ClientState &S = Clients[C];
    uint64_t Start = Traced ? nowNanos() : 0;
    bool Ok = false;
    if (Object *Order = Heap.allocate(*Ctx, 0, ProbeLines)) {
      Ctx->pushRoot(Order);
      Ok = true;
      for (uint16_t I = 0; Ok && I < ProbeLines; ++I) {
        Object *Line = Heap.allocate(*Ctx, sizeof(uint64_t), 0);
        Ok = Line != nullptr;
        if (Ok) {
          uint64_t Stamp = Seq * ProbeLines + I;
          std::memcpy(Line->payload(), &Stamp, sizeof(Stamp));
          Heap.writeRef(*Ctx, Order, I, Line);
        }
      }
      for (uint16_t I = 0; Ok && I < ProbeLines; ++I) {
        uint64_t Stamp = 0;
        std::memcpy(&Stamp, GcHeap::readRef(Order, I)->payload(),
                    sizeof(Stamp));
        Ok = Stamp == Seq * ProbeLines + I;
      }
      Ctx->popRoots(1);
    }
    if (Traced)
      S.Ops.push_back({Seq, Start, nowNanos(), OpKind::ProbeOrder});
    S.Mismatches += !Ok;
    S.noteAllocated(*Ctx);
    return Ok;
  };
  OpenLoopConfig Load = schedule();
  // The probe never sleeps between requests: it spins with safepoint
  // polls, so no request waits for a thread wake-up.
  Load.IdleSleepThresholdNanos = UINT64_MAX;
  OpenLoopDriver Driver(&Heap, Load);

  openWindow(Heap);
  uint64_t Start = nowNanos();
  std::thread ProbeThread([&] { Requests = Driver.run(Serve); });
  WorkloadResult W = WarehouseWorkload(Heap, Cfg).run();
  ProbeThread.join();
  closeWindow();
  phase("warehouse.run", "workloads", Start);

  WindowMs = W.DurationMs;
  Transactions = static_cast<double>(W.Transactions);
  BytesAllocated = static_cast<double>(W.BytesAllocated) +
                   static_cast<double>(Clients[0].AllocLast -
                                       Clients[0].AllocFirst);
  Attempted += W.Transactions + Requests.Counters.Completed;
  if (W.IntegrityFailure)
    fail("WarehouseWorkload reported an integrity failure");
  if (Clients[0].Mismatches)
    fail(std::to_string(Clients[0].Mismatches) + " probe requests failed",
         Clients[0].Mismatches);
}

void Bench::verify(Rig &R) {
  if (Spec.Kv) {
    uint64_t Start = nowNanos();
    std::string Error;
    ++Attempted;
    if (!R.Store->verifyAll(&Error))
      fail("KvStore::verifyAll: " + Error);
    size_t Expected = 0;
    for (uint8_t P : R.Present)
      Expected += P;
    ++Attempted;
    if (R.Store->liveEntries() != Expected)
      fail("KvStore holds " + std::to_string(R.Store->liveEntries()) +
           " entries, the key model " + std::to_string(Expected));
    phase("verify.kv_store", "workloads", Start);
  }
  uint64_t Start = nowNanos();
  ++Attempted;
  VerifyResult V = R.Heap->verifyNow(R.Owner);
  if (!V.Ok)
    fail("GcHeap::verifyNow: " + V.Error);
  phase("verify.heap", "runtime", Start);
}

/// Adds the request-latency metrics of the open-loop clients. The
/// end-to-end ones are medians over the window's slices.
void Bench::addRequestMetrics() {
  std::vector<double> Service, Lag;
  uint64_t First = UINT64_MAX, Last = 0;
  for (const LatencyBuffer &B : Requests.Buffers)
    for (size_t I = 0; I < B.size(); ++I) {
      First = std::min(First, B[I].SchedNanos);
      Last = std::max(Last, B[I].SchedNanos);
    }
  Slices Latency(WindowSlices);
  std::vector<double> Misses(WindowSlices);
  size_t Samples = 0;
  for (const LatencyBuffer &B : Requests.Buffers)
    for (size_t I = 0; I < B.size(); ++I) {
      const RequestSample &S = B[I];
      double L = nanosToUs(S.DoneNanos - S.SchedNanos);
      size_t Slice = (S.SchedNanos - First) * WindowSlices / (Last - First + 1);
      Latency[Slice].push_back(L);
      Misses[Slice] += !S.Ok || L > SloLimitUs;
      Service.push_back(nanosToUs(S.DoneNanos - S.SendNanos));
      Lag.push_back(nanosToUs(S.SendNanos - S.SchedNanos));
      ++Samples;
    }
  std::vector<double> MissRatio;
  for (unsigned I = 0; I < WindowSlices; ++I)
    if (!Latency[I].empty())
      MissRatio.push_back(Misses[I] / static_cast<double>(Latency[I].size()));
  const RequestCounters::Snapshot &C = Requests.Counters;
  if (C.DroppedSamples)
    fail("latency buffers dropped " + std::to_string(C.DroppedSamples) +
         " samples");
  metric("req_samples", static_cast<double>(Samples));
  metric("req_p50_us", sliceQuantile(Latency, 0.50));
  metric("req_p99_us", sliceQuantile(Latency, 0.99));
  metric("slo_miss_ratio", median(MissRatio));
  metric("achieved_ratio",
         ratio(Requests.AchievedPerSec, Requests.OfferedPerSec));
  metric("workloads.service_us_p99", quantile(Service, 0.99));
  metric("workloads.send_lag_us_p99", quantile(Lag, 0.99));
  metric("workloads.late_start_ratio",
         ratio(static_cast<double>(C.LateStarts),
               static_cast<double>(C.Scheduled)));

  std::vector<double> PerOp[static_cast<size_t>(OpKind::NumKinds)];
  for (const ClientState &S : Clients)
    for (const OpSpan &Op : S.Ops)
      PerOp[static_cast<size_t>(Op.Kind)].push_back(
          nanosToUs(Op.End - Op.Start));
  auto &Gets = PerOp[static_cast<size_t>(OpKind::Get)];
  auto &Sets = PerOp[static_cast<size_t>(OpKind::Set)];
  auto &Dels = PerOp[static_cast<size_t>(OpKind::Del)];
  metric("workloads.kv_get_us_p50", quantile(Gets, 0.50));
  metric("workloads.kv_get_us_p99", quantile(Gets, 0.99));
  metric("workloads.kv_set_us_p50", quantile(Sets, 0.50));
  metric("workloads.kv_set_us_p99", quantile(Sets, 0.99));
  metric("workloads.kv_del_us_p50", quantile(Dels, 0.50));
}

void Bench::openWindow(GcHeap &Heap) {
  Before.Cycles = Heap.stats().numCycles();
  Before.Escalations = Heap.stats().escalations();
  Before.LockAcquisitions = Heap.core().Heap.freeList().lockAcquisitions();
  Before.Pool = Heap.core().Pool.stats();
  Before.StallWarnings = Heap.core().Registry.stwStallWarnings();
  Before.FenceTimeouts = Heap.core().Registry.fenceTimeouts();
}

/// Reads the peak resident set before verification and the metric
/// vectors add to it. The window's request samples and spans are
/// perfbench's, not the collector's, so the bytes written to their
/// reserved storage are taken off.
void Bench::closeWindow() {
  double Records = 0;
  for (const LatencyBuffer &B : Requests.Buffers)
    Records += static_cast<double>(B.size() * sizeof(RequestSample));
  for (const ClientState &S : Clients)
    Records += static_cast<double>(S.Ops.size() * sizeof(OpSpan));
  RssPeakMb = peakRssMb() - Records / MiB;
}

void Bench::addMetrics(Rig &R, const std::vector<CycleRecord> &Cycles) {
  GcHeap &Heap = *R.Heap;
  GcCore &Core = Heap.core();
  const double WindowS = WindowMs / 1e3;
  const double AllocMb = BytesAllocated / MiB;
  const double N = static_cast<double>(Cycles.size());

  Slices Pause(WindowSlices);
  std::vector<double> AllPauses, PreConc, Stop, CardClean, Rescan, FinalMark,
      Sweep, FreeAfter, LargestFree, LiveAfter, TracingFactor;
  double PauseSum = 0, SweepMsSum = 0, FinalMarkMsSum = 0, TracedFinal = 0,
         TracedTotal = 0, TracedConc = 0, TracedBg = 0, CardsFinal = 0,
         CardsConc = 0, Overflows = 0, Deferred = 0, Concurrently = 0,
         HeapBytesSum = 0, LiveSum = 0;
  double MinLive = 0;
  for (size_t I = 0; I < Cycles.size(); ++I) {
    const CycleRecord &C = Cycles[I];
    Pause[I * WindowSlices / Cycles.size()].push_back(C.PauseMs);
    AllPauses.push_back(C.PauseMs);
    PauseSum += C.PauseMs;
    PreConc.push_back(C.PreConcurrentMs);
    Stop.push_back(C.StopMs);
    CardClean.push_back(C.FinalCardCleanMs);
    Rescan.push_back(C.StackRescanMs);
    FinalMark.push_back(C.FinalMarkMs);
    FinalMarkMsSum += C.FinalMarkMs;
    Sweep.push_back(C.SweepMs);
    SweepMsSum += C.SweepMs;
    FreeAfter.push_back(static_cast<double>(C.FreeBytesAfter) / MiB);
    LargestFree.push_back(static_cast<double>(C.LargestFreeRangeAfter) / 1024);
    LiveAfter.push_back(static_cast<double>(C.LiveBytesAfter) / MiB);
    LiveSum += static_cast<double>(C.LiveBytesAfter);
    MinLive = LiveAfter.size() == 1
                  ? static_cast<double>(C.LiveBytesAfter)
                  : std::min(MinLive, static_cast<double>(C.LiveBytesAfter));
    if (C.Concurrent && C.TracingIncrements)
      TracingFactor.push_back(C.TracingFactorMean);
    TracedFinal += static_cast<double>(C.BytesTracedFinal);
    TracedConc += static_cast<double>(C.BytesTracedConcurrent);
    TracedTotal +=
        static_cast<double>(C.BytesTracedConcurrent + C.BytesTracedFinal);
    TracedBg += static_cast<double>(C.BytesTracedByBackground);
    CardsFinal += static_cast<double>(C.CardsCleanedFinal);
    CardsConc += static_cast<double>(C.CardsCleanedConcurrent);
    Overflows += static_cast<double>(C.Overflows);
    Deferred += static_cast<double>(C.DeferredObjects);
    Concurrently += C.CompletedConcurrently;
    HeapBytesSum += static_cast<double>(C.HeapBytes);
  }

  // End to end.
  metric("setup_s", quantile(SetupSeconds, 0.5));
  metric("tx_per_s", ratio(Transactions, WindowS));
  addRequestMetrics();
  metric("pauses", N);
  metric("pause_p50_ms", sliceQuantile(Pause, 0.50));
  const double PauseP90 = sliceQuantile(Pause, 0.90);
  metric("pause_p90_ms", PauseP90);
  // For the GC-activity floor: pauses of the whole window beyond the
  // reported p90.
  metric("pauses_beyond_p90",
         static_cast<double>(std::count_if(
             AllPauses.begin(), AllPauses.end(),
             [&](double P) { return P > PauseP90; })));
  metric("pause_share", ratio(PauseSum, WindowMs));
  metric("rss_peak_mb", RssPeakMb);
  metric("failed_ratio", ratio(static_cast<double>(Failed),
                               static_cast<double>(Attempted)));

  // runtime
  EscalationCounts Esc = Heap.stats().escalations();
  auto Rung = [&](EscalationRung Rg) {
    return static_cast<double>(Esc.rung(Rg) - Before.Escalations.rung(Rg));
  };
  metric("runtime.create_ms", quantile(CreateMs, 0.5));
  metric("runtime.ladder_refill_retry", Rung(EscalationRung::RefillRetry));
  metric("runtime.ladder_sweep_finish", Rung(EscalationRung::SweepFinish));
  metric("runtime.ladder_stw_finish", Rung(EscalationRung::StwFinish));
  metric("runtime.ladder_full_stw", Rung(EscalationRung::FullStw));
  metric("runtime.ladder_alloc_failure",
         Rung(EscalationRung::AllocationFailure));
  metric("runtime.watchdog_trips",
         static_cast<double>(Esc.WatchdogTrips -
                             Before.Escalations.WatchdogTrips));

  // heap
  metric("heap.alloc_mb_per_s", ratio(AllocMb, WindowS));
  metric("heap.freelist_lock_acq_per_mb",
         ratio(static_cast<double>(Core.Heap.freeList().lockAcquisitions() -
                                   Before.LockAcquisitions),
               AllocMb));
  metric("heap.free_after_mb_p50", quantile(FreeAfter, 0.5));
  metric("heap.largest_free_range_kb_p50", quantile(LargestFree, 0.5));

  // gc: pacer
  metric("gc.cycles_per_gb", ratio(N, AllocMb / 1024));
  metric("gc.concurrent_completion_ratio", ratio(Concurrently, N));
  metric("gc.pre_concurrent_ms_p50", quantile(PreConc, 0.50));
  metric("gc.pre_concurrent_ms_p90", quantile(PreConc, 0.90));
  // As MetricsRegistry estimates it: live-after above the window's
  // low-water mark, as a share of the heap.
  metric("gc.floating_garbage_ratio",
         ratio(LiveSum - MinLive * N, HeapBytesSum));
  metric("gc.live_after_mb_p50", quantile(LiveAfter, 0.5));

  // gc: pause
  metric("gc.stop_ms_p50", quantile(Stop, 0.5));
  metric("gc.final_card_clean_ms_p50", quantile(CardClean, 0.5));
  metric("gc.cards_final_per_cycle", ratio(CardsFinal, N));
  metric("gc.cards_concurrent_per_cycle", ratio(CardsConc, N));
  metric("gc.stack_rescan_ms_p50", quantile(Rescan, 0.5));
  metric("gc.final_mark_ms_p50", quantile(FinalMark, 0.5));
  metric("gc.final_mark_mb_per_ms", ratio(TracedFinal / MiB, FinalMarkMsSum));

  // gc: sweep. Under lazy sweep no heap bytes are swept in the pause.
  metric("gc.sweep_ms_p50", quantile(Sweep, 0.5));
  metric("gc.sweep_mb_per_ms",
         Spec.LazySweep ? 0 : ratio(HeapBytesSum / MiB, SweepMsSum));

  // gc: tracing
  const PauseHistogram &Quantum =
      Core.Obs.metrics().histogram(PauseMetric::IncQuantum);
  metric("gc.traced_mb_per_cycle", ratio(TracedTotal / MiB, N));
  metric("gc.background_traced_ratio", ratio(TracedBg, TracedConc));
  metric("gc.tracing_factor_mean", mean(TracingFactor));
  metric("gc.inc_quantum_us_p50", nanosToUs(Quantum.quantile(0.5)));
  metric("gc.inc_quantum_ms_total",
         static_cast<double>(Quantum.totalNanos()) / 1e6);

  // workpackets
  PacketPoolStats Pool = Core.Pool.stats();
  metric("workpackets.sync_ops_per_mb_traced",
         ratio(static_cast<double>(Pool.SyncOps - Before.Pool.SyncOps),
               TracedTotal / MiB));
  metric("workpackets.overflows_per_cycle", ratio(Overflows, N));
  metric("workpackets.deferred_per_cycle", ratio(Deferred, N));
  metric("workpackets.failed_gets",
         static_cast<double>(Pool.FailedGets - Before.Pool.FailedGets));
  metric("workpackets.packets_in_use_max",
         static_cast<double>(Pool.PacketsInUseWatermark));

  // mutator
  const MetricsRegistry &M = Core.Obs.metrics();
  metric("mutator.stw_entry_us_p99",
         nanosToUs(M.histogram(PauseMetric::StwEntry).quantile(0.99)));
  metric("mutator.fence_handshake_us_p99",
         nanosToUs(M.histogram(PauseMetric::FenceHandshake).quantile(0.99)));
  metric("mutator.stw_stall_warnings",
         static_cast<double>(Core.Registry.stwStallWarnings() -
                             Before.StallWarnings));
  metric("mutator.fence_timeouts",
         static_cast<double>(Core.Registry.fenceTimeouts() -
                             Before.FenceTimeouts));

  // observe
  metric("observe.dropped_events",
         static_cast<double>(Core.Obs.droppedEvents()));
}

/// Builds the self-time table of the traced run: for each span name, its
/// count, total time, and self time (duration minus the part its child
/// spans cover). A request's child is its call into the collector's API;
/// the workload window's children are the requests.
void Bench::addSelfTimes() {
  auto Row = [&](const std::string &Name, const char *Layer, uint64_t Count,
                 double TotalMs, double SelfMs) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"span\": \"%s\", \"layer\": \"%s\", \"count\": %llu, "
                  "\"total_ms\": %.6f, \"self_ms\": %.6f}",
                  Name.c_str(), Layer, static_cast<unsigned long long>(Count),
                  TotalMs, SelfMs);
    SelfTimes.emplace_back(Buf);
  };

  // Union of request intervals, for the window span's self time.
  std::vector<std::pair<uint64_t, uint64_t>> Intervals;
  double RequestMs = 0, OpMs = 0;
  for (const LatencyBuffer &B : Requests.Buffers)
    for (size_t I = 0; I < B.size(); ++I) {
      Intervals.emplace_back(B[I].SchedNanos, B[I].DoneNanos);
      RequestMs += static_cast<double>(B[I].DoneNanos - B[I].SchedNanos) / 1e6;
    }
  std::sort(Intervals.begin(), Intervals.end());
  double CoveredMs = 0;
  uint64_t CurLo = 0, CurHi = 0;
  for (const auto &[Lo, Hi] : Intervals) {
    if (Lo > CurHi) {
      CoveredMs += static_cast<double>(CurHi - CurLo) / 1e6;
      CurLo = Lo;
      CurHi = Hi;
    } else {
      CurHi = std::max(CurHi, Hi);
    }
  }
  CoveredMs += static_cast<double>(CurHi - CurLo) / 1e6;

  // Phase spans, merged by name.
  std::vector<std::string> Seen;
  for (const PhaseSpan &P : Phases) {
    if (std::find(Seen.begin(), Seen.end(), P.Name) != Seen.end())
      continue;
    Seen.emplace_back(P.Name);
    uint64_t Count = 0;
    double TotalMs = 0;
    for (const PhaseSpan &Q : Phases)
      if (std::strcmp(P.Name, Q.Name) == 0) {
        ++Count;
        TotalMs += static_cast<double>(Q.End - Q.Start) / 1e6;
      }
    bool IsWindow = std::strcmp(P.Name, "window.kv") == 0;
    Row(P.Name, P.Layer, Count, TotalMs,
        IsWindow ? TotalMs - CoveredMs : TotalMs);
  }

  uint64_t OpCount[static_cast<size_t>(OpKind::NumKinds)] = {};
  double OpKindMs[static_cast<size_t>(OpKind::NumKinds)] = {};
  for (const ClientState &S : Clients)
    for (const OpSpan &Op : S.Ops) {
      double Ms = static_cast<double>(Op.End - Op.Start) / 1e6;
      OpMs += Ms;
      ++OpCount[static_cast<size_t>(Op.Kind)];
      OpKindMs[static_cast<size_t>(Op.Kind)] += Ms;
    }
  Row("request", "workloads", Requests.Counters.Completed, RequestMs,
      RequestMs - OpMs);
  for (size_t K = 0; K < static_cast<size_t>(OpKind::NumKinds); ++K)
    if (OpCount[K])
      Row(opName(static_cast<OpKind>(K)),
          static_cast<OpKind>(K) == OpKind::ProbeOrder ? "runtime"
                                                       : "workloads",
          OpCount[K], OpKindMs[K], OpKindMs[K]);
}

/// Writes the traced run's spans as CSV: every phase span, and each
/// request span (with its child) that is slower than the p99 or falls on
/// the sampling stride. Times are nanoseconds since perfbench started.
void Bench::writeSpans(const char *Path) const {
  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", Path);
    return;
  }
  std::fprintf(F, "trace,span,parent,name,layer,start_ns,end_ns\n");
  for (size_t I = 0; I < Phases.size(); ++I)
    std::fprintf(F, "run,p%zu,,%s,%s,%llu,%llu\n", I, Phases[I].Name,
                 Phases[I].Layer,
                 static_cast<unsigned long long>(Phases[I].Start - T0),
                 static_cast<unsigned long long>(Phases[I].End - T0));
  std::vector<uint64_t> All = Requests.openLoopLatencies();
  uint64_t P99 = 0;
  if (!All.empty()) {
    size_t Rank = All.size() - All.size() / 100 - 1;
    std::nth_element(All.begin(), All.begin() + Rank, All.end());
    P99 = All[Rank];
  }
  for (size_t C = 0; C < Clients.size(); ++C) {
    const LatencyBuffer &B = Requests.Buffers[C];
    for (const OpSpan &Op : Clients[C].Ops) {
      if (Op.Seq >= B.size())
        continue;
      const RequestSample &S = B[Op.Seq];
      if (S.DoneNanos - S.SchedNanos < P99 && Op.Seq % SpanSampleEvery)
        continue;
      std::fprintf(F, "c%zu.%llu,req,,request,workloads,%llu,%llu\n", C,
                   static_cast<unsigned long long>(Op.Seq),
                   static_cast<unsigned long long>(S.SchedNanos - T0),
                   static_cast<unsigned long long>(S.DoneNanos - T0));
      std::fprintf(F, "c%zu.%llu,op,req,%s,%s,%llu,%llu\n", C,
                   static_cast<unsigned long long>(Op.Seq), opName(Op.Kind),
                   Op.Kind == OpKind::ProbeOrder ? "runtime" : "workloads",
                   static_cast<unsigned long long>(Op.Start - T0),
                   static_cast<unsigned long long>(Op.End - T0));
    }
  }
  std::fclose(F);
}

void Bench::emitJson(const SpinGaps &Gaps) const {
#ifdef NDEBUG
  const bool Assertions = false;
#else
  const bool Assertions = true;
#endif
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %u, "
              "\"observe\": %s, ",
              Spec.Name, static_cast<unsigned long long>(Seed), Seconds,
              Traced ? "true" : "false");
  std::printf("\"host\": {\"nproc\": %u, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"assertions\": %s, "
              "\"cgc_observe_compiled\": %d, \"spin_gap_share\": %.6f, "
              "\"spin_gap_max_ms\": %.4f, \"spin_gaps\": %llu}, ",
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, Assertions ? "true" : "false",
              CGC_OBSERVE_COMPILED, Gaps.Share, Gaps.MaxMs,
              static_cast<unsigned long long>(Gaps.Count));
  std::printf("\"slo_limit_us\": %.1f, \"attempted\": %llu, \"failed\": %llu, "
              "\"errors\": [",
              SloLimitUs, static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I < Errors.size(); ++I)
    std::printf("%s\"%s\"", I ? ", " : "", jsonEscape(Errors[I]).c_str());
  std::printf("], \"self_times\": [");
  for (size_t I = 0; I < SelfTimes.size(); ++I)
    std::printf("%s%s", I ? ", " : "", SelfTimes[I].c_str());
  std::printf("], \"metrics\": {");
  for (size_t I = 0; I < Metrics.size(); ++I)
    std::printf("%s\"%s\": %.17g", I ? ", " : "", Metrics[I].first.c_str(),
                std::isfinite(Metrics[I].second) ? Metrics[I].second : 0.0);
  std::printf("}}\n");
}

int Bench::run(const char *SpansPath) {
  SpinGaps Gaps = calibrateSpinGaps();

  // The repeats keep their memory: glibc serves every block, the heap
  // too, from its arena and returns none of it, so repeats after the
  // first touch no fresh pages.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  std::unique_ptr<Rig> R;
  const uint64_t SetupStart = nowNanos();
  for (unsigned I = 0;
       I < SetupRepeats || nowNanos() - SetupStart < SetupMinNanos; ++I) {
    R.reset();
    R = setupOnce();
  }
  // The heap the window runs on is built last, in fresh memory as a
  // server's is: the repeats' memory goes back to the system, and glibc
  // maps every large block anew.
  R.reset();
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  malloc_trim(0);
  mallopt(M_MMAP_MAX, 65536);
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  R = setupOnce();

  GcHeap &Heap = *R->Heap;
  if (Spec.Kv)
    runKv(*R);
  else
    runWarehouse(*R);
  std::vector<CycleRecord> Cycles = Heap.stats().snapshot();
  Cycles.erase(Cycles.begin(),
               Cycles.begin() + static_cast<std::ptrdiff_t>(Before.Cycles));

  uint64_t AllocFailures =
      Heap.stats().escalationCount(EscalationRung::AllocationFailure) -
      Before.Escalations.rung(EscalationRung::AllocationFailure);
  if (AllocFailures && !Spec.Kv) // KV counts them as failed sets already.
    fail(std::to_string(AllocFailures) + " allocations failed", AllocFailures);
  verify(*R);

  addMetrics(*R, Cycles);
  if (Traced) {
    addSelfTimes();
    if (SpansPath)
      writeSpans(SpansPath);
  }
  emitJson(Gaps);
  return 0;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload warehouse|kv|kv-lazy --seed N "
               "--seconds S [--observe 0|1] [--spans FILE]\n");
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
  const WorkloadSpec *Spec = nullptr;
  uint64_t Seed = 1;
  long Seconds = 10;
  bool Traced = false;
  const char *SpansPath = nullptr;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      usage();
    const char *Val = Argv[++I];
    if (Arg == "--workload") {
      for (const WorkloadSpec &W : Workloads)
        if (std::strcmp(W.Name, Val) == 0)
          Spec = &W;
      if (!Spec)
        usage();
    } else if (Arg == "--seed") {
      Seed = std::strtoull(Val, nullptr, 10);
    } else if (Arg == "--seconds") {
      Seconds = std::strtol(Val, nullptr, 10);
    } else if (Arg == "--observe") {
      Traced = std::strcmp(Val, "1") == 0;
    } else if (Arg == "--spans") {
      SpansPath = Val;
    } else {
      usage();
    }
  }
  if (!Spec || Seconds < 1 || Seconds > 600)
    usage();
  Bench B(*Spec, Seed, static_cast<unsigned>(Seconds), Traced);
  return B.run(SpansPath);
}
