// Unit tests for src/common: Status/Result, units, RNG/Zipf, bit
// utilities and the thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/bitutil.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/units.h"

namespace mgjoin {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad packet size");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad packet size");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::OutOfMemory("x").code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok = ParsePositive(7);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);

  Result<int> bad = ParsePositive(-1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

Status ChainedHelper(int x, int* out) {
  MGJ_ASSIGN_OR_RETURN(*out, ParsePositive(x));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int v = 0;
  EXPECT_TRUE(ChainedHelper(5, &v).ok());
  EXPECT_EQ(v, 5);
  EXPECT_FALSE(ChainedHelper(-5, &v).ok());
}

TEST(UnitsTest, Formatting) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2 * kMiB), "2.0 MiB");
  EXPECT_EQ(FormatBytes(3 * kGiB), "3.0 GiB");
  EXPECT_EQ(FormatBandwidth(25.0 * kGBps), "25.0 GB/s");
}

TEST(UnitsTest, PaperTupleUnits) {
  // The paper's "M" is 2^20 and "B" is 2^30.
  EXPECT_EQ(kMTuples, 1048576u);
  EXPECT_EQ(kBTuples, 1024u * kMTuples);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.Shuffle(&v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 10u);
}

TEST(ZipfTest, ZeroSkewIsRoughlyUniform) {
  ZipfGenerator gen(10, 0.0, 99);
  std::map<std::uint64_t, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[gen.Next()];
  for (const auto& [v, c] : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.02) << "value " << v;
  }
}

TEST(ZipfTest, HighSkewConcentratesOnHead) {
  ZipfGenerator gen(1000, 1.0, 99);
  int head = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (gen.Next() < 10) ++head;
  }
  // With z=1 over 1000 values, the top 10 values carry ~39% of the mass.
  EXPECT_GT(head, n / 3);
}

TEST(ZipfTest, ValuesInRange) {
  ZipfGenerator gen(37, 0.75, 1);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(gen.Next(), 37u);
}

TEST(ZipfTest, SingleValueDomainIsConstantOnBothStreams) {
  // n=1 leaves no randomness at all: the sequential and the
  // counter-based stream must both pin every draw to 0, at any skew.
  for (const double z : {0.0, 1.0, 6.0}) {
    ZipfGenerator gen(1, z, 123);
    for (std::uint64_t i = 0; i < 100; ++i) {
      EXPECT_EQ(gen.Next(), 0u) << "z=" << z;
      EXPECT_EQ(gen.ValueAt(i), 0u) << "z=" << z;
    }
  }
}

TEST(ZipfTest, ZeroSkewValueAtIsRoughlyUniform) {
  // The counter-based stream must degenerate to uniform at z=0 just
  // like Next() does (same CDF, different stream).
  ZipfGenerator gen(10, 0.0, 99);
  std::map<std::uint64_t, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[gen.ValueAt(i)];
  for (const auto& [v, c] : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.02) << "value " << v;
  }
}

TEST(ZipfTest, VeryLargeSkewIsNearlyDegenerate) {
  // At z > 4 the distribution is almost all rank 0; both streams must
  // agree on that without overflowing the CDF normalization.
  ZipfGenerator gen(1000, 6.0, 31);
  const int n = 20000;
  int next_head = 0, value_at_head = 0;
  for (int i = 0; i < n; ++i) {
    if (gen.Next() == 0) ++next_head;
    if (gen.ValueAt(static_cast<std::uint64_t>(i)) == 0) ++value_at_head;
  }
  EXPECT_GT(next_head, n * 95 / 100);
  EXPECT_GT(value_at_head, n * 95 / 100);
  for (std::uint64_t i = 0; i < 2000; ++i) {
    EXPECT_LT(gen.ValueAt(i), 1000u);
  }
}

TEST(ZipfTest, StreamsShareTheCdfButNotTheSequence) {
  // Next() and ValueAt() are documented as *distinct* streams over the
  // same distribution: at the uniform and heavy-skew extremes their
  // per-value frequencies must track each other closely, while the
  // sequences themselves are allowed (and expected) to differ.
  for (const double z : {0.0, 4.5}) {
    ZipfGenerator seq(50, z, 77);
    ZipfGenerator ctr(50, z, 77);
    const int n = 200000;
    std::map<std::uint64_t, int> seq_counts, ctr_counts;
    for (int i = 0; i < n; ++i) {
      ++seq_counts[seq.Next()];
      ++ctr_counts[ctr.ValueAt(static_cast<std::uint64_t>(i))];
    }
    for (std::uint64_t v = 0; v < 50; ++v) {
      EXPECT_NEAR(static_cast<double>(seq_counts[v]) / n,
                  static_cast<double>(ctr_counts[v]) / n, 0.015)
          << "z=" << z << " value " << v;
    }
  }
}

TEST(BitUtilTest, Log2Ceil) {
  EXPECT_EQ(Log2Ceil(0), 0);
  EXPECT_EQ(Log2Ceil(1), 0);
  EXPECT_EQ(Log2Ceil(2), 1);
  EXPECT_EQ(Log2Ceil(3), 2);
  EXPECT_EQ(Log2Ceil(4), 2);
  EXPECT_EQ(Log2Ceil(4096), 12);
  EXPECT_EQ(Log2Ceil(4097), 13);
}

TEST(BitUtilTest, NextPow2) {
  EXPECT_EQ(NextPow2(0), 1u);
  EXPECT_EQ(NextPow2(1), 1u);
  EXPECT_EQ(NextPow2(3), 4u);
  EXPECT_EQ(NextPow2(4096), 4096u);
  EXPECT_EQ(NextPow2(4097), 8192u);
}

TEST(BitUtilTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(10, 3), 4u);
  EXPECT_EQ(CeilDiv(9, 3), 3u);
  EXPECT_EQ(CeilDiv(1, 100), 1u);
}

TEST(HashTest, MixesSequentialKeys) {
  // Radix partitioning takes top bits; sequential keys must spread.
  std::map<std::uint32_t, int> buckets;
  for (std::uint32_t k = 0; k < 65536; ++k) {
    ++buckets[HashKey(k) >> 28];  // 16 buckets
  }
  EXPECT_EQ(buckets.size(), 16u);
  for (const auto& [b, c] : buckets) {
    EXPECT_NEAR(c, 4096, 600) << "bucket " << b;
  }
}

TEST(HashTest, Deterministic) {
  EXPECT_EQ(HashKey(42), HashKey(42));
  EXPECT_NE(HashKey(42), HashKey(43));
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  std::vector<int> hits(257, 0);
  ParallelFor(0, 257, [&hits](std::size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  bool ran = false;
  ParallelFor(5, 5, [&ran](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ExceptionPropagatesAndNoTaskIsLost) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&counter, i] {
      if (i == 57) throw std::runtime_error("task 57 failed");
      counter.fetch_add(1);
    });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // Every non-throwing task still ran: a failure must not drop work.
  EXPECT_EQ(counter.load(), 199);
  // The error is consumed by the rethrow; the pool is reusable.
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, ParallelForPropagatesExceptions) {
  EXPECT_THROW(
      ParallelFor(0, 64,
                  [](std::size_t i) {
                    if (i == 13) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnceAtAnyThreadCount) {
  // Block edges move with the pool size; every index of [begin, end)
  // must still run exactly once and nothing outside it may run.
  constexpr std::size_t kBegin = 7;
  for (std::size_t threads : {1, 3, 4, 8}) {
    ThreadPool::SetDefaultThreads(threads);
    for (std::size_t n : {1, 3, 15, 17, 257, 4096}) {
      std::vector<std::atomic<int>> hits(n);
      std::atomic<int> outside{0};
      ParallelFor(kBegin, kBegin + n, [&](std::size_t i) {
        if (i < kBegin || i >= kBegin + n) {
          outside.fetch_add(1);
        } else {
          hits[i - kBegin].fetch_add(1);
        }
      });
      EXPECT_EQ(outside.load(), 0) << threads << " threads, n=" << n;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << threads << " threads, n=" << n << ", index " << kBegin + i;
      }
    }
  }
  ThreadPool::SetDefaultThreads(0);
}

TEST(ThreadPoolTest, ParallelForBlockExceptionContract) {
  // n = 64 at 4 threads is 16 blocks of 4 indices: index 13 throws in
  // block [12, 16). Its first exception is rethrown once every block has
  // finished; 14 and 15 may be skipped, every other index runs once.
  ThreadPool::SetDefaultThreads(4);
  std::vector<std::atomic<int>> hits(64);
  EXPECT_THROW(ParallelFor(0, 64,
                           [&hits](std::size_t i) {
                             hits[i].fetch_add(1);
                             if (i == 13) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    if (i == 14 || i == 15) {
      EXPECT_LE(hits[i].load(), 1) << i;
    } else {
      EXPECT_EQ(hits[i].load(), 1) << i;
    }
  }

  // Two failing blocks: exactly one of their exceptions surfaces, and
  // the pool is reusable afterwards.
  try {
    ParallelFor(0, 64, [](std::size_t i) {
      if (i == 2) throw std::runtime_error("low");
      if (i == 61) throw std::logic_error("high");
    });
    ADD_FAILURE() << "ParallelFor swallowed both exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "low");
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "high");
  }
  std::atomic<int> after{0};
  ParallelFor(0, 64, [&after](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 64);

  // Inline (one thread), the loop stops at the first throw.
  ThreadPool::SetDefaultThreads(1);
  std::size_t ran = 0;
  EXPECT_THROW(ParallelFor(0, 64,
                           [&ran](std::size_t i) {
                             ++ran;
                             if (i == 13) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  EXPECT_EQ(ran, 14u);
  ThreadPool::SetDefaultThreads(0);
}

TEST(ThreadPoolTest, StressManyWaves) {
  ThreadPool pool(8);
  std::atomic<std::uint64_t> sum{0};
  for (int wave = 0; wave < 50; ++wave) {
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&sum] { sum.fetch_add(1); });
    }
    pool.Wait();
  }
  EXPECT_EQ(sum.load(), 50u * 64u);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  // A ParallelFor from inside a pool task must not block on the pool it
  // runs on (deadlock) or fan out N^2 tasks; it runs inline, in order,
  // on the worker that runs the outer index.
  ThreadPool::SetDefaultThreads(4);
  std::vector<std::vector<std::size_t>> inner_order(16);
  std::atomic<int> off_thread{0};
  ParallelFor(0, 16, [&](std::size_t o) {
    EXPECT_TRUE(ThreadPool::InWorker());
    const std::thread::id outer = std::this_thread::get_id();
    ParallelFor(0, 8, [&, o, outer](std::size_t i) {
      if (std::this_thread::get_id() != outer) off_thread.fetch_add(1);
      inner_order[o].push_back(i);
    });
  });
  EXPECT_EQ(off_thread.load(), 0);
  const std::vector<std::size_t> want = {0, 1, 2, 3, 4, 5, 6, 7};
  for (const auto& order : inner_order) EXPECT_EQ(order, want);
  ThreadPool::SetDefaultThreads(0);
}

TEST(ThreadPoolTest, ParallelForChunkedCoversRangeOnce) {
  std::vector<int> hits(1000, 0);
  ParallelForChunked(0, 1000, 64,
                     [&hits](std::size_t lo, std::size_t hi) {
                       for (std::size_t i = lo; i < hi; ++i) ++hits[i];
                     });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ResolveThreadCountPolicy) {
  const std::size_t hw = std::max<std::size_t>(
      std::thread::hardware_concurrency(), 1);
  const std::size_t cap = std::max<std::size_t>(hw, 8);
  // Explicit requests are honored up to the cap.
  EXPECT_EQ(ThreadPool::ResolveThreadCount(1), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(2), 2u);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(100000), cap);
  // MGJ_THREADS fills in when no explicit request is made.
  ::setenv("MGJ_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(0), 3u);
  ::setenv("MGJ_THREADS", "100000", 1);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(0), cap);
  ::unsetenv("MGJ_THREADS");
  EXPECT_EQ(ThreadPool::ResolveThreadCount(0), hw);
}

TEST(ThreadPoolTest, SetDefaultThreadsResizesPool) {
  ThreadPool::SetDefaultThreads(2);
  EXPECT_EQ(ThreadPool::Default()->num_threads(), 2u);
  ThreadPool::SetDefaultThreads(4);
  EXPECT_EQ(ThreadPool::Default()->num_threads(), 4u);
  ThreadPool::SetDefaultThreads(0);  // back to the environment default
  EXPECT_EQ(ThreadPool::Default()->num_threads(),
            ThreadPool::ResolveThreadCount(0));
}

TEST(IndexPermutationTest, IsBijectionOnRange) {
  for (std::uint64_t n : {1ull, 2ull, 7ull, 1000ull, 4096ull, 65537ull}) {
    IndexPermutation perm(n, /*seed=*/123);
    std::vector<bool> seen(n, false);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t v = perm.Apply(i);
      ASSERT_LT(v, n);
      ASSERT_FALSE(seen[v]) << "duplicate image at n=" << n;
      seen[v] = true;
    }
  }
}

TEST(IndexPermutationTest, SeedChangesPermutation) {
  const std::uint64_t n = 4096;
  IndexPermutation a(n, 1), b(n, 2);
  int differing = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (a.Apply(i) != b.Apply(i)) ++differing;
  }
  EXPECT_GT(differing, static_cast<int>(n) / 2);
}

TEST(IndexPermutationTest, ActuallyShuffles) {
  const std::uint64_t n = 1u << 16;
  IndexPermutation perm(n, 42);
  std::uint64_t fixed_points = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (perm.Apply(i) == i) ++fixed_points;
  }
  // A random permutation has ~1 expected fixed point.
  EXPECT_LT(fixed_points, n / 100);
}

TEST(CounterHashTest, DeterministicAndSeedSeparated) {
  EXPECT_EQ(CounterHash(1, 5), CounterHash(1, 5));
  EXPECT_NE(CounterHash(1, 5), CounterHash(2, 5));
  EXPECT_NE(CounterHash(1, 5), CounterHash(1, 6));
  const double d = CounterDouble(9, 9);
  EXPECT_GE(d, 0.0);
  EXPECT_LT(d, 1.0);
}

TEST(ZipfTest, ValueAtIsOrderIndependent) {
  ZipfGenerator zipf(1000, 1.0, /*seed=*/7);
  // Same positions evaluated in any order give the same values.
  const std::uint64_t a = zipf.ValueAt(10);
  const std::uint64_t b = zipf.ValueAt(3);
  EXPECT_EQ(zipf.ValueAt(3), b);
  EXPECT_EQ(zipf.ValueAt(10), a);
  for (std::uint64_t i = 0; i < 2000; ++i) {
    EXPECT_LT(zipf.ValueAt(i), 1000u);
  }
}

TEST(ZipfTest, ValueAtConcentratesOnHeadUnderSkew) {
  ZipfGenerator zipf(1000, 1.5, /*seed=*/11);
  std::uint64_t head = 0;
  const std::uint64_t draws = 20000;
  for (std::uint64_t i = 0; i < draws; ++i) {
    if (zipf.ValueAt(i) < 10) ++head;
  }
  // With z=1.5 the top-10 ranks carry well over half the mass.
  EXPECT_GT(head, draws / 2);
}

TEST(LoggingDeathTest, AtFatalHooksRunBeforeAbort) {
  // The hook chain is what flushes traces/metrics when an MGJ_CHECK
  // trips (bench::BenchReport registers one); it must run between the fatal
  // message and the abort, in the aborting process.
  EXPECT_DEATH(
      {
        AtFatal([] { std::fprintf(stderr, "at-fatal-hook-ran\n"); });
        MGJ_CHECK(false) << "boom";
      },
      "boom.*at-fatal-hook-ran");
}

}  // namespace
}  // namespace mgjoin
