//===- card_cleaning_test.cpp - card cleaner protocol --------------------------//

#include "gc/CardCleaner.h"

#include "gc/GcCore.h"
#include "support/Atomics.h"
#include "support/Fences.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

using namespace cgc;

namespace {

class CardCleaningTest : public ::testing::Test {
protected:
  CardCleaningTest() {
    GcOptions Opts;
    Opts.HeapBytes = 4u << 20;
    Opts.NumWorkPackets = 16;
    Opts.BackgroundThreads = 0;
    Core = std::make_unique<GcCore>(Opts);
  }

  /// Fabricates a marked, allocated object at \p Offset.
  Object *plantMarked(size_t Offset, uint32_t Size) {
    Object *Obj = reinterpret_cast<Object *>(Core->Heap.base() + Offset);
    Obj->initialize(Size, 0, 0);
    Core->Heap.allocBits().set(Obj);
    Core->Heap.markBits().set(Obj);
    return Obj;
  }

  std::unique_ptr<GcCore> Core;
};

TEST_F(CardCleaningTest, NoPassWithoutDirtyCards) {
  Core->Cleaner.beginCycle(1);
  EXPECT_FALSE(Core->Cleaner.tryBeginConcurrentPass(nullptr));
  // The empty registration consumed the pass budget.
  EXPECT_TRUE(Core->Cleaner.concurrentCleaningComplete());
}

TEST_F(CardCleaningTest, CleanPushesMarkedObjectsOnly) {
  Core->Cleaner.beginCycle(1);
  Object *Marked = plantMarked(0, 64);
  // An unmarked allocated neighbour on the same card.
  Object *Unmarked = reinterpret_cast<Object *>(Core->Heap.base() + 64);
  Unmarked->initialize(64, 0, 0);
  Core->Heap.allocBits().set(Unmarked);
  Core->Heap.cards().dirty(Marked);

  ASSERT_TRUE(Core->Cleaner.tryBeginConcurrentPass(nullptr));
  TraceContext Ctx(Core->Pool);
  EXPECT_EQ(Core->Cleaner.cleanSome(Ctx, 100), 1u);
  EXPECT_TRUE(Core->Cleaner.currentPassDrained());
  EXPECT_EQ(Ctx.popWork(), Marked);
  EXPECT_EQ(Ctx.popWork(), nullptr);
  Ctx.release();
  EXPECT_EQ(Core->Cleaner.cleanedConcurrent(), 1u);
  EXPECT_EQ(Core->Cleaner.cleanedFinal(), 0u);
}

TEST_F(CardCleaningTest, RegistrationIssuesHandshakeFence) {
  Core->Cleaner.beginCycle(1);
  plantMarked(0, 64);
  Core->Heap.cards().dirty(Core->Heap.base());
  fenceCounters().reset();
  ASSERT_TRUE(Core->Cleaner.tryBeginConcurrentPass(nullptr));
  EXPECT_GE(fenceCounters().count(FenceSite::CardTableHandshake), 1u);
  TraceContext Ctx(Core->Pool);
  Core->Cleaner.cleanSome(Ctx, 100);
  Ctx.release();
}

TEST_F(CardCleaningTest, PassBudgetEnforced) {
  Core->Cleaner.beginCycle(1);
  plantMarked(0, 64);
  Core->Heap.cards().dirty(Core->Heap.base());
  ASSERT_TRUE(Core->Cleaner.tryBeginConcurrentPass(nullptr));
  TraceContext Ctx(Core->Pool);
  Core->Cleaner.cleanSome(Ctx, 100);
  // Re-dirty: with a budget of one pass, no further pass starts.
  Core->Heap.cards().dirty(Core->Heap.base());
  EXPECT_FALSE(Core->Cleaner.tryBeginConcurrentPass(nullptr));
  EXPECT_TRUE(Core->Cleaner.concurrentCleaningComplete());
  // Drain our context's packets.
  while (Ctx.popWork())
    ;
  Ctx.release();
}

TEST_F(CardCleaningTest, TwoPassConfigRunsSecondPass) {
  Core->Cleaner.beginCycle(2);
  plantMarked(0, 64);
  Core->Heap.cards().dirty(Core->Heap.base());
  ASSERT_TRUE(Core->Cleaner.tryBeginConcurrentPass(nullptr));
  TraceContext Ctx(Core->Pool);
  Core->Cleaner.cleanSome(Ctx, 100);
  EXPECT_FALSE(Core->Cleaner.concurrentCleaningComplete());
  // Card dirtied again between passes.
  Core->Heap.cards().dirty(Core->Heap.base());
  ASSERT_TRUE(Core->Cleaner.tryBeginConcurrentPass(nullptr));
  EXPECT_EQ(Core->Cleaner.cleanSome(Ctx, 100), 1u);
  EXPECT_TRUE(Core->Cleaner.concurrentCleaningComplete());
  EXPECT_EQ(Core->Cleaner.cleanedConcurrent(), 2u);
  while (Ctx.popWork())
    ;
  Ctx.release();
}

TEST_F(CardCleaningTest, FinalPassCarriesOverInterruptedCards) {
  Core->Cleaner.beginCycle(1);
  Object *A = plantMarked(0, 64);
  Object *B = plantMarked(4096, 64); // A different card.
  Core->Heap.cards().dirty(A);
  Core->Heap.cards().dirty(B);
  ASSERT_TRUE(Core->Cleaner.tryBeginConcurrentPass(nullptr));
  TraceContext Ctx(Core->Pool);
  // Clean only one card, then "fail" into the final pass.
  EXPECT_EQ(Core->Cleaner.cleanSome(Ctx, 1), 1u);
  EXPECT_EQ(Core->Cleaner.registeredNotCleaned(), 1u);
  size_t FinalRegistered = Core->Cleaner.beginFinalPass();
  EXPECT_EQ(FinalRegistered, 1u); // The leftover card.
  EXPECT_EQ(Core->Cleaner.cleanSome(Ctx, 100), 1u);
  EXPECT_EQ(Core->Cleaner.cleanedFinal(), 1u);
  // Both objects were pushed exactly once in total.
  int Count = 0;
  while (Ctx.popWork())
    ++Count;
  EXPECT_EQ(Count, 2);
  Ctx.release();
}

TEST_F(CardCleaningTest, FinalPassPicksUpNewDirtyCards) {
  Core->Cleaner.beginCycle(0); // No concurrent cleaning at all.
  Object *A = plantMarked(0, 64);
  Core->Heap.cards().dirty(A);
  EXPECT_EQ(Core->Cleaner.beginFinalPass(), 1u);
  TraceContext Ctx(Core->Pool);
  EXPECT_EQ(Core->Cleaner.cleanSome(Ctx, 100), 1u);
  EXPECT_EQ(Ctx.popWork(), A);
  Ctx.release();
  // A second final pass with nothing dirty registers nothing.
  EXPECT_EQ(Core->Cleaner.beginFinalPass(), 0u);
}

TEST_F(CardCleaningTest, MultipleObjectsPerCard) {
  Core->Cleaner.beginCycle(1);
  // Card 0 holds several marked objects.
  for (int I = 0; I < 5; ++I)
    plantMarked(static_cast<size_t>(I) * 64, 64);
  Core->Heap.cards().dirty(Core->Heap.base());
  ASSERT_TRUE(Core->Cleaner.tryBeginConcurrentPass(nullptr));
  TraceContext Ctx(Core->Pool);
  Core->Cleaner.cleanSome(Ctx, 100);
  int Count = 0;
  while (Ctx.popWork())
    ++Count;
  EXPECT_EQ(Count, 5);
  Ctx.release();
}

TEST_F(CardCleaningTest, IdleCleanersDoNotBurnClaims) {
  // Regression test: cleanSome invoked while NO pass is active (starved
  // tracers probe it constantly) must not consume claim indices —
  // otherwise the first cards of the next registration are silently
  // skipped and their (already cleared) dirty flags are lost.
  Core->Cleaner.beginCycle(1);
  TraceContext Ctx(Core->Pool);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Core->Cleaner.cleanSome(Ctx, 16), 0u);

  Object *A = plantMarked(0, 64);
  Object *B = plantMarked(4096, 64);
  Core->Heap.cards().dirty(A);
  Core->Heap.cards().dirty(B);
  ASSERT_TRUE(Core->Cleaner.tryBeginConcurrentPass(nullptr));
  EXPECT_EQ(Core->Cleaner.cleanSome(Ctx, 100), 2u)
      << "probing cleanSome while idle must not skip registered cards";
  EXPECT_TRUE(Core->Cleaner.currentPassDrained());
  int Count = 0;
  while (Ctx.popWork())
    ++Count;
  EXPECT_EQ(Count, 2);
  Ctx.release();
}

TEST_F(CardCleaningTest, TotalRegisteredAccumulates) {
  Core->Cleaner.beginCycle(2);
  plantMarked(0, 64);
  Core->Heap.cards().dirty(Core->Heap.base());
  ASSERT_TRUE(Core->Cleaner.tryBeginConcurrentPass(nullptr));
  TraceContext Ctx(Core->Pool);
  Core->Cleaner.cleanSome(Ctx, 100);
  Core->Heap.cards().dirty(Core->Heap.base() + 512);
  ASSERT_TRUE(Core->Cleaner.tryBeginConcurrentPass(nullptr));
  Core->Cleaner.cleanSome(Ctx, 100);
  EXPECT_EQ(Core->Cleaner.totalRegistered(), 2u);
  while (Ctx.popWork())
    ;
  Ctx.release();
}

TEST(AtomicClaimRangeTest, RunsNeverPassTheLimit) {
  std::atomic<size_t> Next{0};
  using Run = std::pair<size_t, size_t>;
  EXPECT_EQ(atomicClaimRangeBelow(Next, size_t{10}, size_t{4}), Run(0, 4));
  EXPECT_EQ(atomicClaimRangeBelow(Next, size_t{10}, size_t{4}), Run(4, 8));
  EXPECT_EQ(atomicClaimRangeBelow(Next, size_t{10}, size_t{4}), Run(8, 10));
  EXPECT_FALSE(atomicClaimRangeBelow(Next, size_t{10}, size_t{4}));
  EXPECT_EQ(Next.load(), 10u);
  // A limit below the counter (no pass active) claims nothing.
  EXPECT_FALSE(atomicClaimRangeBelow(Next, size_t{0}, size_t{4}));
  EXPECT_EQ(Next.load(), 10u);
}

TEST_F(CardCleaningTest, ConcurrentRunClaimsCleanEveryCardOnce) {
  // One marked object per card; four cleaners claim runs of 7 cards
  // (not a divisor of the card count, so the last run is cut short).
  constexpr size_t NumCards = 200;
  std::vector<Object *> Planted;
  for (size_t I = 0; I < NumCards; ++I) {
    Object *Obj = plantMarked(I * CardTable::CardBytes, 64);
    Core->Heap.cards().dirty(Obj);
    Planted.push_back(Obj);
  }
  Core->Cleaner.beginCycle(1);
  ASSERT_TRUE(Core->Cleaner.tryBeginConcurrentPass(nullptr));

  std::atomic<size_t> CleanedSum{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&] {
      TraceContext Ctx(Core->Pool);
      size_t Mine = 0;
      while (size_t Cards = Core->Cleaner.cleanSome(Ctx, 7)) {
        EXPECT_LE(Cards, 7u);
        Mine += Cards;
      }
      Ctx.release(); // Publishes the pushed objects to the pool.
      CleanedSum.fetch_add(Mine, std::memory_order_relaxed);
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(CleanedSum.load(std::memory_order_relaxed), NumCards);
  EXPECT_EQ(Core->Cleaner.cleanedConcurrent(), NumCards);
  EXPECT_EQ(Core->Cleaner.registeredNotCleaned(), 0u);
  EXPECT_TRUE(Core->Cleaner.concurrentCleaningComplete());
  TraceContext Ctx(Core->Pool);
  // A drained pass hands out no more claims.
  EXPECT_EQ(Core->Cleaner.cleanSome(Ctx, 7), 0u);
  EXPECT_EQ(Core->Cleaner.registeredNotCleaned(), 0u);
  std::map<Object *, int> Seen;
  while (Object *Obj = Ctx.popWork())
    ++Seen[Obj];
  Ctx.release();
  ASSERT_EQ(Seen.size(), NumCards) << "a card was skipped";
  for (Object *Obj : Planted)
    EXPECT_EQ(Seen[Obj], 1) << "card cleaned more than once";
}

} // namespace
