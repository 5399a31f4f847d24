//===- bitvector_test.cpp - mark/allocation bit vector units -------------------//

#include "heap/BitVector8.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

using namespace cgc;

namespace {

/// Fixture owning an aligned fake heap region.
class BitVectorTest : public ::testing::Test {
protected:
  static constexpr size_t HeapBytes = 1u << 16;
  void SetUp() override {
    Mem.reset(static_cast<uint8_t *>(std::aligned_alloc(4096, HeapBytes)));
    Bits = std::make_unique<BitVector8>(Mem.get(), HeapBytes);
  }
  uint8_t *addr(size_t GranuleIndex) {
    return Mem.get() + GranuleIndex * GranuleBytes;
  }
  struct FreeDeleter {
    void operator()(uint8_t *P) const { std::free(P); }
  };
  std::unique_ptr<uint8_t, FreeDeleter> Mem;
  std::unique_ptr<BitVector8> Bits;
};

TEST_F(BitVectorTest, TestAndSetWinsOnce) {
  EXPECT_FALSE(Bits->test(addr(5)));
  EXPECT_TRUE(Bits->testAndSet(addr(5)));
  EXPECT_FALSE(Bits->testAndSet(addr(5)));
  EXPECT_TRUE(Bits->test(addr(5)));
  EXPECT_FALSE(Bits->test(addr(4)));
  EXPECT_FALSE(Bits->test(addr(6)));
}

TEST_F(BitVectorTest, SetAndClear) {
  Bits->set(addr(100));
  EXPECT_TRUE(Bits->test(addr(100)));
  Bits->clear(addr(100));
  EXPECT_FALSE(Bits->test(addr(100)));
}

TEST_F(BitVectorTest, ClearAll) {
  for (size_t I = 0; I < 100; I += 7)
    Bits->set(addr(I));
  Bits->clearAll();
  for (size_t I = 0; I < 100; ++I)
    EXPECT_FALSE(Bits->test(addr(I)));
}

TEST_F(BitVectorTest, FindNextSetWithinWord) {
  Bits->set(addr(10));
  EXPECT_EQ(Bits->findNextSet(addr(0), addr(64)), addr(10));
  EXPECT_EQ(Bits->findNextSet(addr(10), addr(64)), addr(10));
  EXPECT_EQ(Bits->findNextSet(addr(11), addr(64)), nullptr);
}

TEST_F(BitVectorTest, FindNextSetAcrossWords) {
  Bits->set(addr(200));
  EXPECT_EQ(Bits->findNextSet(addr(0), addr(4096)), addr(200));
  // Bit exactly at range end is excluded.
  EXPECT_EQ(Bits->findNextSet(addr(0), addr(200)), nullptr);
  EXPECT_EQ(Bits->findNextSet(addr(0), addr(201)), addr(200));
}

TEST_F(BitVectorTest, FindPrevSet) {
  EXPECT_EQ(Bits->findPrevSet(addr(100)), nullptr);
  Bits->set(addr(3));
  Bits->set(addr(70));
  EXPECT_EQ(Bits->findPrevSet(addr(100)), addr(70));
  EXPECT_EQ(Bits->findPrevSet(addr(70)), addr(3));
  EXPECT_EQ(Bits->findPrevSet(addr(4)), addr(3));
  EXPECT_EQ(Bits->findPrevSet(addr(3)), nullptr);
  EXPECT_EQ(Bits->findPrevSet(Mem.get()), nullptr);
}

TEST_F(BitVectorTest, ClearRangeWithinWord) {
  for (size_t I = 0; I < 64; ++I)
    Bits->set(addr(I));
  Bits->clearRange(addr(10), addr(20));
  for (size_t I = 0; I < 64; ++I)
    EXPECT_EQ(Bits->test(addr(I)), I < 10 || I >= 20) << I;
}

TEST_F(BitVectorTest, ClearRangeAcrossWords) {
  for (size_t I = 0; I < 300; ++I)
    Bits->set(addr(I));
  Bits->clearRange(addr(50), addr(250));
  for (size_t I = 0; I < 300; ++I)
    EXPECT_EQ(Bits->test(addr(I)), I < 50 || I >= 250) << I;
}

TEST_F(BitVectorTest, ClearRangeEmptyAndWordAligned) {
  Bits->set(addr(64));
  Bits->clearRange(addr(64), addr(64)); // Empty range: no-op.
  EXPECT_TRUE(Bits->test(addr(64)));
  Bits->clearRange(addr(64), addr(128)); // Exactly one word.
  EXPECT_FALSE(Bits->test(addr(64)));
}

TEST_F(BitVectorTest, CountInRange) {
  Bits->set(addr(1));
  Bits->set(addr(65));
  Bits->set(addr(130));
  EXPECT_EQ(Bits->countInRange(addr(0), addr(200)), 3u);
  EXPECT_EQ(Bits->countInRange(addr(2), addr(130)), 1u);
  EXPECT_EQ(Bits->countInRange(addr(2), addr(131)), 2u);
}

/// [From, To) granule ranges covering the word-shape cases of the
/// masked range operations: single granules at both word edges, ranges
/// ending exactly on or one past a word boundary, full words, ranges
/// spanning several words, and the last word of the bitmap.
constexpr std::pair<size_t, size_t> WordShapeRanges[] = {
    {0, 1},     {63, 64},   {64, 65},    {5, 6},      {1, 63},
    {0, 64},    {64, 128},  {63, 65},    {62, 130},   {0, 128},
    {127, 129}, {10, 200},  {64, 320},   {8191, 8192}, {8128, 8192},
    {0, 8192}};

TEST_F(BitVectorTest, ClearRangeWordShapes) {
  const size_t Granules = HeapBytes / GranuleBytes;
  for (auto [From, To] : WordShapeRanges) {
    for (size_t I = 0; I < Granules; ++I)
      Bits->set(addr(I));
    Bits->clearRange(addr(From), addr(To));
    for (size_t I = 0; I < Granules; ++I)
      ASSERT_EQ(Bits->test(addr(I)), I < From || I >= To)
          << "granule " << I << " after clearing [" << From << ", " << To
          << ")";
  }
}

TEST_F(BitVectorTest, CountInRangeWordShapes) {
  const size_t Granules = HeapBytes / GranuleBytes;
  // Dense (every bit) and sparse (every third bit) patterns: counts must
  // match a bit-by-bit model, so a mask off by one at either edge shows.
  for (size_t Stride : {size_t{1}, size_t{3}}) {
    Bits->clearAll();
    for (size_t I = 0; I < Granules; I += Stride)
      Bits->set(addr(I));
    for (auto [From, To] : WordShapeRanges) {
      size_t Expected = 0;
      for (size_t I = From; I < To; ++I)
        Expected += I % Stride == 0;
      EXPECT_EQ(Bits->countInRange(addr(From), addr(To)), Expected)
          << "[" << From << ", " << To << ") stride " << Stride;
    }
    EXPECT_EQ(Bits->countInRange(addr(7), addr(7)), 0u);
  }
}

TEST_F(BitVectorTest, FindNextSetIndexStopsAtEnd) {
  const size_t Granules = HeapBytes / GranuleBytes;
  EXPECT_EQ(Bits->findNextSetIndex(0, Granules), Granules);
  Bits->set(addr(70));
  EXPECT_EQ(Bits->findNextSetIndex(0, Granules), 70u);
  EXPECT_EQ(Bits->findNextSetIndex(70, 71), 70u);
  // A set bit in the same word but at or past End is not found.
  EXPECT_EQ(Bits->findNextSetIndex(64, 70), 70u);
  EXPECT_EQ(Bits->findNextSetIndex(64, 66), 66u);
  EXPECT_EQ(Bits->findNextSet(addr(0), addr(66)), nullptr);
  EXPECT_EQ(Bits->findNextSetIndex(71, 128), 128u);
  EXPECT_EQ(Bits->findNextSetIndex(70, 70), 70u);
  Bits->set(addr(Granules - 1));
  EXPECT_EQ(Bits->findNextSetIndex(71, Granules), Granules - 1);
  EXPECT_EQ(Bits->boundIndex(addr(Granules)), Granules);
  EXPECT_EQ(Bits->granuleAddress(70), addr(70));
}

TEST_F(BitVectorTest, ForEachSetInRangeOrderAndEarlyStop) {
  Bits->set(addr(5));
  Bits->set(addr(7));
  Bits->set(addr(300));
  std::vector<uint8_t *> Seen;
  Bits->forEachSetInRange(addr(0), addr(4096), [&](uint8_t *P) {
    Seen.push_back(P);
    return true;
  });
  ASSERT_EQ(Seen.size(), 3u);
  EXPECT_EQ(Seen[0], addr(5));
  EXPECT_EQ(Seen[1], addr(7));
  EXPECT_EQ(Seen[2], addr(300));

  size_t Count = 0;
  Bits->forEachSetInRange(addr(0), addr(4096), [&](uint8_t *) {
    ++Count;
    return Count < 2; // Early stop after two.
  });
  EXPECT_EQ(Count, 2u);
}

TEST_F(BitVectorTest, ConcurrentTestAndSetExactlyOneWinner) {
  constexpr int NumThreads = 4;
  constexpr size_t NumGranules = 2048;
  std::vector<int> Wins(NumThreads, 0);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (size_t I = 0; I < NumGranules; ++I)
        if (Bits->testAndSet(addr(I)))
          ++Wins[T];
    });
  for (auto &Th : Threads)
    Th.join();
  int Total = 0;
  for (int W : Wins)
    Total += W;
  EXPECT_EQ(Total, static_cast<int>(NumGranules));
  for (size_t I = 0; I < NumGranules; ++I)
    EXPECT_TRUE(Bits->test(addr(I)));
}

/// Property sweep: clearRange leaves exactly the complement set, for a
/// grid of (start, length) combinations crossing word boundaries.
class ClearRangeSweep
    : public BitVectorTest,
      public ::testing::WithParamInterface<std::pair<size_t, size_t>> {};

TEST_P(ClearRangeSweep, ComplementPreserved) {
  auto [Start, Len] = GetParam();
  for (size_t I = 0; I < 512; ++I)
    Bits->set(addr(I));
  Bits->clearRange(addr(Start), addr(Start + Len));
  for (size_t I = 0; I < 512; ++I)
    EXPECT_EQ(Bits->test(addr(I)), I < Start || I >= Start + Len) << I;
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, ClearRangeSweep,
    ::testing::Values(std::pair<size_t, size_t>{0, 1},
                      std::pair<size_t, size_t>{0, 64},
                      std::pair<size_t, size_t>{1, 63},
                      std::pair<size_t, size_t>{63, 1},
                      std::pair<size_t, size_t>{63, 2},
                      std::pair<size_t, size_t>{64, 64},
                      std::pair<size_t, size_t>{60, 200},
                      std::pair<size_t, size_t>{127, 130},
                      std::pair<size_t, size_t>{0, 512},
                      std::pair<size_t, size_t>{511, 1}));

} // namespace
