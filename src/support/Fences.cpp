//===- Fences.cpp - Instrumented memory fences ----------------------------===//

#include "support/Fences.h"

using namespace cgc;

const char *cgc::fenceSiteName(FenceSite Site) {
  switch (Site) {
  case FenceSite::AllocCacheFlush:
    return "alloc-cache-flush";
  case FenceSite::TracerBatch:
    return "tracer-batch";
  case FenceSite::PacketPublish:
    return "packet-publish";
  case FenceSite::CardTableHandshake:
    return "card-table-handshake";
  case FenceSite::StopTheWorld:
    return "stop-the-world";
  case FenceSite::NumSites:
    break;
  }
  return "unknown";
}

uint64_t FenceCounters::totalRealFences() const {
  uint64_t Total = 0;
  for (const auto &C : Counts)
    Total += C.load(std::memory_order_relaxed);
  return Total;
}

void FenceCounters::reset() {
  for (auto &C : Counts)
    C.store(0, std::memory_order_relaxed);
}

FenceCounters &cgc::fenceCounters() {
  static FenceCounters Counters;
  return Counters;
}
