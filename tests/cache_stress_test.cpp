// EncodingCache concurrency stress: the daemon shares ONE cache across
// every connection and the batch worker, so hammer a single instance
// from many threads — same key (single-flight compute), different keys,
// mixed feature/graph traffic, with the disk spill on — and assert the
// documented guarantees: references are stable, each encoding is
// computed exactly once, and the counters (relaxed atomics readable
// without the lock) add up exactly. Decision-tree fits racing to sort a
// feature set's shared table must get the table one thread would sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <filesystem>
#include <set>
#include <thread>
#include <vector>

#include "core/encoding_cache.hpp"
#include "datasets/corrbench.hpp"
#include "datasets/mbi.hpp"
#include "ml/decision_tree.hpp"

namespace mpidetect {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;

  explicit TempDir(const std::string& name) {
    path = fs::temp_directory_path() / ("mpidetect_cache_" + name);
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

datasets::Dataset tiny_mbi() {
  datasets::MbiConfig cfg;
  cfg.scale = 0.02;
  cfg.seed = 5;
  return datasets::generate_mbi(cfg);
}

datasets::Dataset tiny_corr() {
  datasets::CorrConfig cfg;
  cfg.scale = 0.05;
  cfg.seed = 5;
  return datasets::generate_corrbench(cfg);
}

constexpr auto kOpt = passes::OptLevel::Os;
constexpr auto kNorm = ir2vec::Normalization::Vector;
constexpr std::uint64_t kSeed = 0x12c0ffee;

TEST(CacheStressTest, ConcurrentSameKeyIsSingleFlightWithStableRefs) {
  const auto ds = tiny_mbi();
  core::EncodingCache cache;

  constexpr int kThreads = 8;
  constexpr int kIters = 16;
  std::vector<const core::FeatureSet*> fs_ptrs(kThreads, nullptr);
  std::vector<const core::GraphSet*> gs_ptrs(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const auto& fs = cache.features(ds, kOpt, kNorm, kSeed, 1);
        const auto& gs = cache.graphs(ds, kOpt, 1);
        // Every thread, every iteration: the SAME objects.
        if (fs_ptrs[t] == nullptr) fs_ptrs[t] = &fs;
        ASSERT_EQ(fs_ptrs[t], &fs);
        if (gs_ptrs[t] == nullptr) gs_ptrs[t] = &gs;
        ASSERT_EQ(gs_ptrs[t], &gs);
        ASSERT_EQ(fs.size(), ds.size());
        ASSERT_EQ(gs.size(), ds.size());
      }
    });
  }
  for (auto& th : threads) th.join();

  // Single-flight: one entry per kind, not one per thread.
  EXPECT_EQ(cache.feature_set_count(), 1u);
  EXPECT_EQ(cache.graph_set_count(), 1u);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(fs_ptrs[t], fs_ptrs[0]);
    EXPECT_EQ(gs_ptrs[t], gs_ptrs[0]);
  }
}

TEST(CacheStressTest, RacingFirstFitsShareOneSortedTable) {
  // The sorted-column table beside a cached feature set is sorted by the
  // fits that arrive first, together: each claims columns from a shared
  // cursor. Start many fits at once, on fresh entries, and check the
  // table and every tree against a table sorted by one thread.
  const auto ds = tiny_mbi();
  core::EncodingCache cache;
  constexpr int kThreads = 8;
  for (int round = 0; round < 3; ++round) {
    const core::FeatureEntry& entry =
        cache.feature_entry(ds, kOpt, kNorm, kSeed, 1);
    ASSERT_FALSE(entry.columns.built());
    const std::size_t n = entry.set.size();
    std::atomic<int> ready{0};
    std::vector<std::vector<ml::DecisionTree::Node>> trees(kThreads);
    std::vector<std::vector<std::size_t>> rows(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      // Every thread leaves a different stride of rows out.
      for (std::size_t i = 0; i < n; ++i) {
        if (i % (kThreads + 1) != static_cast<std::size_t>(t)) {
          rows[t].push_back(i);
        }
      }
      threads.emplace_back([&, t] {
        const core::FeatureEntry& mine =
            cache.feature_entry(ds, kOpt, kNorm, kSeed, 1);
        std::vector<std::size_t> y;
        for (const std::size_t i : rows[t]) y.push_back(mine.set.y_label[i]);
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        ml::DecisionTree dt;
        dt.fit(mine.columns, rows[t], y);
        trees[t] = dt.nodes();
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_TRUE(entry.columns.built());

    const ml::SortedColumns serial(entry.set.X);
    serial.build();
    for (std::size_t f = 0; f < serial.width(); ++f) {
      const auto a = entry.columns.order(f);
      const auto b = serial.order(f);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "feature " << f;
    }
    for (int t = 0; t < kThreads; ++t) {
      std::vector<std::size_t> y;
      for (const std::size_t i : rows[t]) y.push_back(entry.set.y_label[i]);
      ml::DecisionTree dt;
      dt.fit(serial, rows[t], y);
      const auto& want = dt.nodes();
      ASSERT_EQ(trees[t].size(), want.size()) << "thread " << t;
      for (std::size_t k = 0; k < want.size(); ++k) {
        EXPECT_EQ(trees[t][k].feature, want[k].feature);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(trees[t][k].threshold),
                  std::bit_cast<std::uint64_t>(want[k].threshold));
        EXPECT_EQ(trees[t][k].label, want[k].label);
        EXPECT_EQ(trees[t][k].left, want[k].left);
      }
    }
    cache.erase(ds);  // the next round races on a fresh table
    EXPECT_EQ(cache.feature_set_count(), 0u);
  }
}

TEST(CacheStressTest, ConcurrentDistinctKeysAllMaterialize) {
  const auto mbi = tiny_mbi();
  const auto corr = tiny_corr();
  core::EncodingCache cache;

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto& ds = (t % 2 == 0) ? mbi : corr;
      for (int i = 0; i < 8; ++i) {
        // Two normalizations of the same dataset are distinct keys too.
        const auto norm = (i % 2 == 0) ? ir2vec::Normalization::Vector
                                       : ir2vec::Normalization::None;
        ASSERT_EQ(cache.features(ds, kOpt, norm, kSeed, 1).size(), ds.size());
        ASSERT_EQ(cache.graphs(ds, kOpt, 1).size(), ds.size());
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(cache.feature_set_count(), 4u);  // 2 datasets x 2 normalizations
  EXPECT_EQ(cache.graph_set_count(), 2u);
}

TEST(CacheStressTest, ConcurrentSpillTrafficCountsExactly) {
  TempDir dir("spill_stress");
  const auto mbi = tiny_mbi();
  const auto corr = tiny_corr();

  {
    // Cold cache: every distinct encoding is computed once and spilled
    // once, no matter how many threads ask.
    core::EncodingCache cache;
    cache.set_spill_dir(dir.path.string());
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        const auto& ds = (t % 2 == 0) ? mbi : corr;
        for (int i = 0; i < 4; ++i) {
          (void)cache.features(ds, kOpt, kNorm, kSeed, 1);
          (void)cache.graphs(ds, kOpt, 1);
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(cache.disk_hits(), 0u);
    EXPECT_EQ(cache.disk_writes(), 4u);  // 2 datasets x (features + graphs)
  }
  {
    // Warm disk, fresh process (second cache instance): each key is one
    // disk hit, later requests are memory hits, nothing is rewritten.
    core::EncodingCache cache;
    cache.set_spill_dir(dir.path.string());
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        const auto& ds = (t % 2 == 0) ? mbi : corr;
        for (int i = 0; i < 4; ++i) {
          ASSERT_EQ(cache.features(ds, kOpt, kNorm, kSeed, 1).size(),
                    ds.size());
          ASSERT_EQ(cache.graphs(ds, kOpt, 1).size(), ds.size());
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(cache.disk_hits(), 4u);
    EXPECT_EQ(cache.disk_writes(), 0u);
  }
}

TEST(CacheStressTest, CountersReadableWhileComputeHoldsTheLock) {
  // A stats probe (the daemon's STATS frame) must not block behind a
  // compute-on-miss holding the cache mutex: counters are atomics read
  // outside the lock. Run readers concurrently with cold encodes and
  // require they all finish while the lock is busy.
  TempDir dir("counter_probe");
  const auto mbi = tiny_mbi();
  const auto corr = tiny_corr();
  core::EncodingCache cache;
  cache.set_spill_dir(dir.path.string());

  std::atomic<bool> done{false};
  std::atomic<std::size_t> probes{0};
  std::thread prober([&] {
    while (!done.load()) {
      (void)cache.disk_hits();
      (void)cache.disk_writes();
      probes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  (void)cache.features(mbi, kOpt, kNorm, kSeed, 1);
  (void)cache.features(corr, kOpt, kNorm, kSeed, 1);
  (void)cache.graphs(mbi, kOpt, 1);
  done.store(true);
  prober.join();
  EXPECT_GT(probes.load(), 0u);
  EXPECT_EQ(cache.disk_writes(), 3u);
}

}  // namespace
}  // namespace mpidetect
