#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <set>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "support/threads.hpp"

namespace mpidetect {
namespace {

// ---------------------------------------------------------------- check
TEST(Check, PassingCheckDoesNotThrow) { EXPECT_NO_THROW(MPIDETECT_CHECK(1 + 1 == 2)); }

TEST(Check, FailingCheckThrowsContractViolation) {
  EXPECT_THROW(MPIDETECT_CHECK(false), ContractViolation);
}

TEST(Check, FailingExpectsMentionsExpression) {
  try {
    MPIDETECT_EXPECTS(2 < 1);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("2 < 1"), std::string::npos);
  }
}

// ------------------------------------------------------------------ rng
TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformIntCoversFullRangeInclusive) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 3));
  EXPECT_EQ(seen, (std::set<std::int64_t>{0, 1, 2, 3}));
}

TEST(Rng, UniformIntRespectsNegativeBounds) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.uniform_int(-5, -2);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, -2);
  }
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(9, 9), 9);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(17);
  const int n = 20000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(29);
  Rng child = parent.fork();
  // Draw from the child; the parent stream must continue deterministically
  // compared against a reference that forked but never used the child.
  Rng parent2(29);
  Rng child2 = parent2.fork();
  (void)child2;
  for (int i = 0; i < 16; ++i) (void)child.next();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(parent.next(), parent2.next());
}

TEST(Rng, IndexRequiresPositiveSize) {
  Rng rng(1);
  EXPECT_THROW(rng.index(0), ContractViolation);
}

TEST(Rng, Fnv1aStableKnownValue) {
  // FNV-1a of empty string is the offset basis.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a64("MPI_Send"), fnv1a64("MPI_Recv"));
}

TEST(Rng, Mix64AvalanchesSingleBit) {
  EXPECT_NE(mix64(1), mix64(2));
  EXPECT_NE(mix64(0), 0u);
}

// ------------------------------------------------------------------ str
TEST(Str, SplitPreservesEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Str, JoinRoundTripsSplit) {
  EXPECT_EQ(join(split("x;y;z", ';'), ";"), "x;y;z");
}

TEST(Str, TrimBothEnds) { EXPECT_EQ(trim("  hi\t\n"), "hi"); }

TEST(Str, TrimAllWhitespaceYieldsEmpty) { EXPECT_EQ(trim(" \t "), ""); }

TEST(Str, StartsEndsWith) {
  EXPECT_TRUE(starts_with("MPI_Send", "MPI_"));
  EXPECT_FALSE(starts_with("Send", "MPI_"));
  EXPECT_TRUE(ends_with("prog.c", ".c"));
  EXPECT_FALSE(ends_with(".c", "prog.c"));
}

TEST(Str, FmtDoublePrecision) {
  EXPECT_EQ(fmt_double(0.9174, 3), "0.917");
  EXPECT_EQ(fmt_double(1.0, 1), "1.0");
}

TEST(Str, FmtPercent) { EXPECT_EQ(fmt_percent(0.917, 1), "91.7%"); }

TEST(Str, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcde", 3), "abcde");  // never truncates
}

TEST(Str, ReplaceAll) {
  EXPECT_EQ(replace_all("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
}

// ---------------------------------------------------------------- table
TEST(Table, AlignsAndPrintsAllRows) {
  Table t({"Model", "Acc"});
  t.add_row({"IR2vec", "0.917"});
  t.add_separator();
  t.add_row({"GNN", "0.914"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("IR2vec"), std::string::npos);
  EXPECT_NE(s.find("GNN"), std::string::npos);
  EXPECT_NE(s.find("0.917"), std::string::npos);
  EXPECT_EQ(t.row_count(), 3u);
}

TEST(Table, ShortRowsArePadded) {
  Table t({"A", "B", "C"});
  t.add_row({"x"});
  std::ostringstream os;
  EXPECT_NO_THROW(t.print(os));
}

TEST(Table, OversizedRowRejected) {
  Table t({"A"});
  EXPECT_THROW(t.add_row({"x", "y"}), ContractViolation);
}

TEST(Table, CsvOutput) {
  Table t({"A", "B"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "A,B\n1,2\n");
}

// ---------------------------------------------------------------- stats
TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(stddev(xs), 2.138, 1e-3);
}

TEST(Stats, MeanOfEmptyIsZero) { EXPECT_EQ(mean({}), 0.0); }

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 2.5);
}

TEST(Stats, FiveNumberSummaryOrdering) {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);
  const auto s = five_number_summary(xs);
  EXPECT_LE(s.min, s.q1);
  EXPECT_LE(s.q1, s.median);
  EXPECT_LE(s.median, s.q3);
  EXPECT_LE(s.q3, s.max);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
}

TEST(Stats, HistogramCountsEverySample) {
  const std::vector<double> xs{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto h = histogram(xs, 5);
  std::size_t total = 0;
  for (const auto c : h) total += c;
  EXPECT_EQ(total, xs.size());
}

TEST(Stats, HistogramSingleValueGoesToOneBin) {
  const std::vector<double> xs{3, 3, 3};
  const auto h = histogram(xs, 4);
  EXPECT_EQ(h[0], 3u);
}

TEST(Stats, SparklineNonEmpty) {
  const std::vector<double> xs{1, 2, 2, 3, 3, 3};
  EXPECT_FALSE(sparkline(xs, 8).empty());
}

// Back-to-back jobs of a few items each: a worker that wakes late for one
// call must never run an index of the next call with the old job. Every
// job stays alive for the whole test, so a stale job shows up as a double
// hit on the old call and a missed index on the new one, not as a crash.
TEST(ThreadPool, BackToBackCallsRunEachIndexOnceWithTheirOwnJob) {
  constexpr std::size_t kCalls = 10000;
  constexpr std::size_t kMaxN = 6;
  const auto size_of = [](std::size_t c) { return 2 + c % (kMaxN - 1); };
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(kCalls * kMaxN);
  std::vector<std::atomic<int>> out_of_range(kCalls);
  std::vector<std::function<void(std::size_t)>> jobs;
  jobs.reserve(kCalls);
  for (std::size_t c = 0; c < kCalls; ++c) {
    const std::size_t n = size_of(c);
    jobs.emplace_back([&, c, n](std::size_t i) {
      if (i >= n) {
        out_of_range[c].fetch_add(1);
        return;
      }
      hits[c * kMaxN + i].fetch_add(1);
    });
  }
  for (std::size_t c = 0; c < kCalls; ++c) {
    pool.parallel_for(size_of(c), jobs[c]);
  }
  std::size_t stale = 0;
  for (std::size_t c = 0; c < kCalls; ++c) {
    const std::size_t n = size_of(c);
    stale += static_cast<std::size_t>(out_of_range[c].load());
    for (std::size_t i = 0; i < n; ++i) {
      stale += static_cast<std::size_t>(hits[c * kMaxN + i].load() != 1);
    }
  }
  EXPECT_EQ(stale, 0u);
}

// A task that throws on a pool worker must not escape the thread (that
// terminates the process): the exception comes back to the caller, and
// the pool serves the next call normally.
TEST(ThreadPool, ThrowingTaskIsRethrownOnTheCallerAndPoolStaysUsable) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    try {
      pool.parallel_for(64, [](std::size_t i) {
        if (i == 37) throw ContractViolation("task 37 failed");
      });
      ADD_FAILURE() << "parallel_for swallowed the exception";
    } catch (const ContractViolation& e) {
      EXPECT_STREQ(e.what(), "task 37 failed");
    }
    std::vector<std::atomic<int>> hits(50);
    pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
    }
  }
}

TEST(ParallelFor, ThrowingTaskIsRethrownAfterEveryWorkerJoins) {
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_for(64, 4,
                            [&](std::size_t i) {
                              ran.fetch_add(1);
                              if (i == 3) throw ContractViolation("task 3");
                            }),
               ContractViolation);
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), 64);
}

}  // namespace
}  // namespace mpidetect
