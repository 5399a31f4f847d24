//===- StwCollector.h - Baseline parallel stop-the-world GC -----*- C++ -*-===//
///
/// \file
/// The paper's baseline: the mature parallel stop-the-world mark-sweep
/// collector. A cycle runs entirely inside one pause: stop all threads,
/// scan every stack, drain the marking in parallel, bitwise-sweep in
/// parallel. (This reproduction uses work packets for the parallel STW
/// marking too — the paper's conclusion proposes exactly that; the
/// traditional stealing-mark-stack balancer is kept as an ablation in
/// bench/StealingMarker.)
///
//===----------------------------------------------------------------------===//

#ifndef CGC_GC_STWCOLLECTOR_H
#define CGC_GC_STWCOLLECTOR_H

#include "gc/CollectorBase.h"

namespace cgc {

/// Parallel stop-the-world mark-sweep collector.
class StwCollector : public CollectorBase {
public:
  explicit StwCollector(GcCore &Core) : CollectorBase(Core) {}

  void onAllocationSlowPath(MutatorContext &Ctx, size_t Bytes) override;
  void collectNow(MutatorContext *Ctx) override;
};

} // namespace cgc

#endif // CGC_GC_STWCOLLECTOR_H
