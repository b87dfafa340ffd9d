// Memoisation of the "compile + embed" front half of both detector
// pipelines. EvalEngine and every learned detector share one
// EncodingCache, so a dataset is lowered/optimised/embedded once per run
// instead of once per detector or once per protocol.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "core/features.hpp"
#include "ml/decision_tree.hpp"

namespace mpidetect::core {

/// A cached IR2vec feature matrix and the sorted-column table that every
/// decision-tree fit over it filters (ml::SortedColumns). The table is
/// sorted by the first fit that needs it, outside the cache lock; a
/// detector that only prepares and evaluates (mpiguardd) never pays for
/// it. It is freed with the set.
struct FeatureEntry {
  explicit FeatureEntry(FeatureSet fs) : set(std::move(fs)), columns(set.X) {}
  FeatureSet set;
  ml::SortedColumns columns;
};

/// Thread-safe memo of extract_features / extract_graphs results, keyed
/// by dataset content and extraction configuration. Returned references
/// stay valid until the entry is explicitly erase()d (the compute-on-
/// miss path never evicts, and put_* refuses to overwrite).
///
/// With a spill directory set (set_spill_dir), in-memory misses first
/// look for a serialized encoding on disk (io/encoding_io.hpp) and
/// fresh computations are written back, so a corpus is embedded once
/// per MACHINE instead of once per process. Unreadable, corrupt or
/// key-mismatched spill files are treated as misses and overwritten.
class EncodingCache {
 public:
  /// Returns the IR2vec feature matrix of `ds`, computing it on first
  /// use. `threads` only affects the (parallel) first computation.
  const FeatureSet& features(const datasets::Dataset& ds,
                             passes::OptLevel opt, ir2vec::Normalization norm,
                             std::uint64_t vocab_seed, unsigned threads = 0);
  /// The same resolution (one lookup), returning the matrix together
  /// with its shared sorted-column table.
  const FeatureEntry& feature_entry(const datasets::Dataset& ds,
                                    passes::OptLevel opt,
                                    ir2vec::Normalization norm,
                                    std::uint64_t vocab_seed,
                                    unsigned threads = 0);

  /// Returns the ProGraML graph set of `ds`, computing it on first use.
  const GraphSet& graphs(const datasets::Dataset& ds, passes::OptLevel opt,
                         unsigned threads = 0);

  /// Pre-seeds the cache with an externally computed encoding. Used by
  /// benches that synthesise feature matrices (other normalizations or
  /// ablated embeddings) to route pre-encoded data through EvalEngine
  /// (see skeleton_dataset). Throws ContractViolation when the slot is
  /// already occupied — overwriting would invalidate references handed
  /// out earlier; give synthesised datasets distinct names instead.
  void put_features(const datasets::Dataset& ds, passes::OptLevel opt,
                    ir2vec::Normalization norm, std::uint64_t vocab_seed,
                    FeatureSet fs);

  /// Drops every encoding held for `ds` (all options/normalizations),
  /// with the feature sets' sorted-column tables. References previously
  /// returned for `ds` become dangling; callers own the discipline
  /// (Detector::discard is the only engine-side user, on ad-hoc run()
  /// batches and streamed windows).
  void erase(const datasets::Dataset& ds);

  /// Number of distinct encodings held (introspection for tests).
  std::size_t feature_set_count() const;
  std::size_t graph_set_count() const;

  /// Enables the on-disk spill under `dir` (created if absent; empty
  /// string disables). Throws ContractViolation when the directory
  /// cannot be created. Spill write failures (full disk, races) are
  /// swallowed: the cache degrades to in-memory, never crashes a run.
  void set_spill_dir(std::string dir);
  const std::string& spill_dir() const { return spill_dir_; }

  /// Spill traffic counters: encodings served from / written to disk
  /// since construction (introspection for tests, the mpiguard CLI and
  /// the daemon's STATS frames). Plain atomics, readable without the
  /// cache lock: a stats probe must never block behind a multi-second
  /// compute-on-miss holding the mutex (mpiguardd serves STATS from
  /// connection threads while the batch worker encodes).
  std::size_t disk_hits() const;
  std::size_t disk_writes() const;

  /// features()/graphs() resolutions since construction, hits and misses
  /// alike; each one fingerprints the whole dataset. Introspection for
  /// tests: a detector serving a prepared dataset must not add to it.
  std::size_t lookups() const;

 private:
  struct Key {
    std::uint64_t fingerprint = 0;  // dataset content hash
    std::size_t size = 0;
    int opt = 0;
    int norm = -1;  // -1 for graph encodings
    std::uint64_t seed = 0;
    auto operator<=>(const Key&) const = default;
  };

  static std::uint64_t fingerprint(const datasets::Dataset& ds);
  static Key feature_key(const datasets::Dataset& ds, passes::OptLevel opt,
                         ir2vec::Normalization norm, std::uint64_t vocab_seed);
  static Key graph_key(const datasets::Dataset& ds, passes::OptLevel opt);

  /// Concurrency model (audited for the daemon, which shares one cache
  /// across request threads): the maps, entry construction and
  /// spill_dir_ are guarded by mu_; compute-on-miss runs WITH the lock
  /// held, which makes every miss single-flight (two threads asking for
  /// the same encoding never duplicate the work). Returned references
  /// are stable because entries are unique_ptr-owned and never evicted
  /// — only an explicit erase() invalidates them, and the serving path
  /// never calls it. Counters are relaxed atomics, outside the lock.
  mutable std::mutex mu_;
  std::map<Key, std::unique_ptr<FeatureEntry>> features_;
  std::map<Key, std::unique_ptr<GraphSet>> graphs_;
  std::string spill_dir_;
  std::atomic<std::size_t> disk_hits_{0};
  std::atomic<std::size_t> disk_writes_{0};
  std::atomic<std::size_t> lookups_{0};
};

/// Builds a label/flag-only skeleton dataset around a pre-encoded
/// feature set (case names, suite labels and correctness flags, but no
/// programs) so embeddings computed outside a detector can run through
/// EvalEngine with the cache pre-seeded via put_features.
datasets::Dataset skeleton_dataset(const FeatureSet& fs);

}  // namespace mpidetect::core
