//===- support_test.cpp - support library units --------------------------------//

#include "support/EnvKnob.h"
#include "support/Fences.h"
#include "support/Random.h"
#include "support/SampleSeries.h"
#include "support/Smoothing.h"
#include "support/SpinLock.h"
#include "support/TablePrinter.h"
#include "support/Timing.h"

#include <gtest/gtest.h>

#include <cstring>

#include <thread>
#include <vector>

using namespace cgc;

TEST(FencesTest, CountersPerSite) {
  fenceCounters().reset();
  fence(FenceSite::AllocCacheFlush);
  fence(FenceSite::AllocCacheFlush);
  fence(FenceSite::PacketPublish);
  EXPECT_EQ(fenceCounters().count(FenceSite::AllocCacheFlush), 2u);
  EXPECT_EQ(fenceCounters().count(FenceSite::PacketPublish), 1u);
  EXPECT_EQ(fenceCounters().count(FenceSite::TracerBatch), 0u);
  EXPECT_EQ(fenceCounters().totalRealFences(), 3u);
}

TEST(FencesTest, SiteNamesAreUnique) {
  for (unsigned I = 0; I < FenceCounters::NumSites; ++I)
    for (unsigned J = I + 1; J < FenceCounters::NumSites; ++J)
      EXPECT_STRNE(fenceSiteName(static_cast<FenceSite>(I)),
                   fenceSiteName(static_cast<FenceSite>(J)));
}

TEST(SmoothingTest, FirstSampleReplacesSeed) {
  ExponentialAverage Avg(100.0, 0.5);
  EXPECT_DOUBLE_EQ(Avg.value(), 100.0);
  EXPECT_FALSE(Avg.hasSample());
  Avg.addSample(10.0);
  EXPECT_DOUBLE_EQ(Avg.value(), 10.0);
  EXPECT_TRUE(Avg.hasSample());
}

TEST(SmoothingTest, ConvergesToConstantInput) {
  ExponentialAverage Avg(0.0, 0.5);
  for (int I = 0; I < 40; ++I)
    Avg.addSample(42.0);
  EXPECT_NEAR(Avg.value(), 42.0, 1e-9);
}

TEST(SmoothingTest, AlphaWeighting) {
  ExponentialAverage Avg(0.0, 0.25);
  Avg.addSample(100.0);
  Avg.addSample(0.0);
  // 0.25 * 0 + 0.75 * 100
  EXPECT_DOUBLE_EQ(Avg.value(), 75.0);
}

TEST(RandomTest, DeterministicGivenSeed) {
  Random A(7), B(7), C(8);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  bool Differs = false;
  Random A2(7);
  for (int I = 0; I < 100; ++I)
    if (A2.next() != C.next())
      Differs = true;
  EXPECT_TRUE(Differs);
}

TEST(RandomTest, BoundsRespected) {
  Random Rng(123);
  for (int I = 0; I < 1000; ++I) {
    EXPECT_LT(Rng.nextBelow(17), 17u);
    uint64_t V = Rng.nextInRange(5, 9);
    EXPECT_GE(V, 5u);
    EXPECT_LE(V, 9u);
    double D = Rng.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RandomTest, RoughlyUniform) {
  Random Rng(99);
  int Buckets[10] = {};
  for (int I = 0; I < 10000; ++I)
    ++Buckets[Rng.nextBelow(10)];
  for (int B : Buckets) {
    EXPECT_GT(B, 800);
    EXPECT_LT(B, 1200);
  }
}

TEST(SampleSeriesTest, Aggregates) {
  SampleSeries S;
  EXPECT_EQ(S.count(), 0u);
  EXPECT_DOUBLE_EQ(S.mean(), 0.0);
  S.add(2.0);
  S.add(4.0);
  S.add(6.0);
  EXPECT_EQ(S.count(), 3u);
  EXPECT_DOUBLE_EQ(S.mean(), 4.0);
  EXPECT_DOUBLE_EQ(S.max(), 6.0);
  EXPECT_DOUBLE_EQ(S.min(), 2.0);
  EXPECT_DOUBLE_EQ(S.sum(), 12.0);
  EXPECT_NEAR(S.stddev(), 1.632993, 1e-5);
  S.reset();
  EXPECT_EQ(S.count(), 0u);
}

TEST(SampleSeriesTest, Percentiles) {
  SampleSeries S;
  EXPECT_DOUBLE_EQ(S.percentile(0.5), 0.0);
  for (int I = 1; I <= 100; ++I)
    S.add(static_cast<double>(I));
  EXPECT_DOUBLE_EQ(S.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(S.percentile(1.0), 100.0);
  EXPECT_NEAR(S.percentile(0.5), 50.5, 0.01);
  EXPECT_NEAR(S.percentile(0.99), 99.01, 0.01);
  EXPECT_NEAR(S.percentile(0.95), 95.05, 0.01);
}

TEST(SampleSeriesTest, ConcurrentAdds) {
  SampleSeries S;
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&S] {
      for (int I = 0; I < 1000; ++I)
        S.add(1.0);
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(S.count(), 4000u);
  EXPECT_DOUBLE_EQ(S.sum(), 4000.0);
}

TEST(SpinLockTest, MutualExclusion) {
  SpinLock Lock;
  int Counter = 0;
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&] {
      for (int I = 0; I < 10000; ++I) {
        std::lock_guard<SpinLock> Guard(Lock);
        ++Counter;
      }
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Counter, 40000);
}

TEST(SpinLockTest, TryLock) {
  SpinLock Lock;
  EXPECT_TRUE(Lock.try_lock());
  EXPECT_FALSE(Lock.try_lock());
  Lock.unlock();
  EXPECT_TRUE(Lock.try_lock());
  Lock.unlock();
}

TEST(TimingTest, StopwatchMonotonic) {
  Stopwatch W;
  uint64_t A = W.elapsedNanos();
  uint64_t B = W.elapsedNanos();
  EXPECT_LE(A, B);
  W.restart();
  EXPECT_LE(W.elapsedMillis(), 1000.0);
}

TEST(TablePrinterTest, Formatting) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::num(uint64_t{42}), "42");
  EXPECT_EQ(TablePrinter::percent(0.123, 1), "12.3%");
}

TEST(TablePrinterTest, PrintsAlignedColumns) {
  TablePrinter T({"name", "value"});
  T.addRow({"a", "1"});
  T.addRow({"long-name"}); // Missing cell renders empty.
  std::FILE *F = std::tmpfile();
  ASSERT_NE(F, nullptr);
  T.print(F);
  std::rewind(F);
  char Buf[256] = {};
  size_t N = std::fread(Buf, 1, sizeof(Buf) - 1, F);
  std::fclose(F);
  ASSERT_GT(N, 0u);
  EXPECT_NE(std::strstr(Buf, "name"), nullptr);
  EXPECT_NE(std::strstr(Buf, "long-name"), nullptr);
}

TEST(EnvKnobTest, AcceptsPlainAndHexIntegers) {
  uint64_t V = 0;
  EXPECT_TRUE(parseEnvKnob("0", &V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseEnvKnob("1500", &V));
  EXPECT_EQ(V, 1500u);
  EXPECT_TRUE(parseEnvKnob("0x20", &V));
  EXPECT_EQ(V, 0x20u);
  EXPECT_TRUE(parseEnvKnob("18446744073709551615", &V));
  EXPECT_EQ(V, UINT64_MAX);
}

TEST(EnvKnobTest, RejectsJunkWithReason) {
  // The whole point of the shared parser: a mistyped CGC_BENCH_* knob
  // must produce an error, never a silent strtoull zero.
  uint64_t V = 0;
  std::string Error;
  EXPECT_FALSE(parseEnvKnob(nullptr, &V, &Error));
  EXPECT_FALSE(parseEnvKnob("", &V, &Error));
  EXPECT_NE(Error.find("empty"), std::string::npos);
  EXPECT_FALSE(parseEnvKnob("-5", &V, &Error));
  EXPECT_NE(Error.find("negative"), std::string::npos);
  EXPECT_FALSE(parseEnvKnob("3OO", &V, &Error)); // the classic typo
  EXPECT_NE(Error.find("junk"), std::string::npos);
  EXPECT_FALSE(parseEnvKnob("2.5s", &V, &Error));
  EXPECT_FALSE(parseEnvKnob("abc", &V, &Error));
  EXPECT_NE(Error.find("not a number"), std::string::npos);
  EXPECT_FALSE(parseEnvKnob(" 12", &V, &Error));
  EXPECT_FALSE(parseEnvKnob("12 ", &V, &Error));
  EXPECT_FALSE(parseEnvKnob("+12", &V, &Error));
  EXPECT_FALSE(parseEnvKnob("99999999999999999999999", &V, &Error));
  EXPECT_NE(Error.find("out of range"), std::string::npos);
}

TEST(EnvKnobTest, EnvReadFallsBackToDefaultWhenUnset) {
  unsetenv("CGC_TEST_KNOB_UNSET");
  EXPECT_EQ(envKnobU64("CGC_TEST_KNOB_UNSET", 42), 42u);
  setenv("CGC_TEST_KNOB_SET", "1234", 1);
  EXPECT_EQ(envKnobU64("CGC_TEST_KNOB_SET", 42), 1234u);
  unsetenv("CGC_TEST_KNOB_SET");
}
