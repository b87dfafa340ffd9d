// The .mpcs sharded on-disk corpus format and its streaming reader /
// writer — the out-of-core substrate that lets encode→train→eval run
// over corpora far larger than RAM (ROADMAP: "the refactor that unlocks
// every later scale claim").
//
// A corpus is a directory of `shard-NNNNNN.mpcs` files iterated in
// lexicographic order. Each shard is sector-based in the style of the
// IPS transfer format: a 512-byte header sector (magic "MPCS" + u32
// version + geometry + two FNV-1a fingerprints), a payload of
// sector-aligned self-contained case records (corpus/record.hpp), and a
// fixed-width index table mapping ordinal → (offset, length, labels,
// hashed case id, record checksum). Fixed sector alignment makes every
// record directly addressable from the index and mmap-friendly; the
// index carries enough metadata (labels + hashed case id) that
// stratified fold assignment and report construction never decode a
// record. Byte-level layout tables live in docs/CORPUS.md.
//
// Integrity model: CorpusReader::open validates every shard up front —
// header checksum, geometry, whole-shard content fingerprint (streamed
// with a fixed-size buffer, so validation itself is O(1) in memory) and
// every index entry — so a corrupt shard is rejected at open, never
// mid-iteration. Per-record checksums are re-verified on each load() as
// a guard against post-open file modification.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "datasets/dataset.hpp"

namespace mpidetect::corpus {

inline constexpr std::string_view kShardMagic = "MPCS";
inline constexpr std::uint32_t kShardVersion = 1;
/// Every record starts on a sector boundary and is zero-padded to a
/// sector multiple; the header occupies exactly one sector.
inline constexpr std::uint32_t kSectorSize = 512;
/// Header prefix covered by the header checksum (bytes [0, 56)).
inline constexpr std::size_t kHeaderHashedBytes = 56;
/// Fixed-width on-disk index entry (see docs/CORPUS.md).
inline constexpr std::size_t kIndexEntrySize = 32;

/// Default shard rotation bounds (overridable per writer).
inline constexpr std::uint64_t kDefaultMaxShardBytes = 64ull << 20;
inline constexpr std::uint64_t kDefaultMaxCasesPerShard = 1ull << 16;

// ---------------------------------------------------------------------------
// Streaming case sources
// ---------------------------------------------------------------------------

/// Abstract source of labeled cases: what every EvalEngine protocol and
/// Detector::fit_stream consume. Label metadata is available without
/// decoding a case, so fold assignment and report construction stay
/// O(metadata); only load() touches case payloads. Implementations need
/// not be thread-safe.
class CaseSource {
 public:
  virtual ~CaseSource() = default;

  /// Corpus display name (used as the dataset name in reports).
  virtual const std::string& name() const = 0;
  virtual std::size_t size() const = 0;

  /// Binary ground truth of case i, from metadata only.
  virtual bool incorrect(std::size_t i) const = 0;
  /// Unified label string of case i ("Correct", "Call Ordering", ...).
  virtual std::string label_name(std::size_t i) const = 0;
  /// Stable hashed id of case i (fnv1a64 of the case name).
  virtual std::uint64_t case_id(std::size_t i) const = 0;

  /// Materializes case i. May throw io::FormatError on a source whose
  /// backing bytes changed since open.
  virtual datasets::Case load(std::size_t i) const = 0;

  /// The whole source as one in-memory dataset when it already is one
  /// (DatasetSource), else null (an on-disk corpus). The protocols pick
  /// their residency from this: a resident source is encoded once and
  /// its folds run in parallel; any other is windowed.
  virtual const datasets::Dataset* resident() const { return nullptr; }
};

/// Materializes the cases at `idx` (in order) as an ad-hoc dataset named
/// "<source>:window" — the unit of work of every windowed path.
datasets::Dataset load_window(const CaseSource& src,
                              std::span<const std::size_t> idx);

/// In-memory adapter: presents a datasets::Dataset as a resident
/// CaseSource, which is how the Dataset overloads of EvalEngine reach
/// the one protocol implementation.
class DatasetSource final : public CaseSource {
 public:
  explicit DatasetSource(const datasets::Dataset& ds);

  const std::string& name() const override { return ds_->name; }
  std::size_t size() const override { return ds_->cases.size(); }
  bool incorrect(std::size_t i) const override;
  std::string label_name(std::size_t i) const override;
  std::uint64_t case_id(std::size_t i) const override;
  datasets::Case load(std::size_t i) const override;
  const datasets::Dataset* resident() const override { return ds_; }

 private:
  const datasets::Dataset* ds_;
};

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct WriterOptions {
  std::uint64_t max_shard_bytes = kDefaultMaxShardBytes;
  std::uint64_t max_cases_per_shard = kDefaultMaxCasesPerShard;
};

struct WriteStats {
  std::uint64_t cases = 0;
  std::uint64_t shards = 0;
  std::uint64_t bytes = 0;  // total on-disk bytes across all shards
};

/// Streams cases into bounded-size shards under `dir`. Memory use is
/// O(one record + one shard index); shards rotate when either writer
/// bound is hit. Each shard is written to a ".tmp" file and renamed into
/// place only after its header (with fingerprints) is finalized, so a
/// crash never leaves a half-written shard behind under a .mpcs name.
/// finish() must be called to flush the last shard; the destructor
/// aborts (deletes) an unfinished temp shard instead.
class CorpusWriter {
 public:
  explicit CorpusWriter(std::filesystem::path dir, WriterOptions opts = {});
  ~CorpusWriter();

  CorpusWriter(const CorpusWriter&) = delete;
  CorpusWriter& operator=(const CorpusWriter&) = delete;

  void add(const datasets::Case& c);
  /// Finalizes the open shard and returns cumulative stats. Idempotent.
  WriteStats finish();

 private:
  struct IndexEntry;

  void open_shard();
  void close_shard();

  std::filesystem::path dir_;
  WriterOptions opts_;
  std::ofstream out_;
  std::filesystem::path tmp_path_;
  std::uint64_t shard_seq_ = 0;
  std::uint64_t payload_bytes_ = 0;
  std::uint64_t content_fp_ = 0;
  std::vector<IndexEntry> index_;
  WriteStats stats_;
  bool shard_open_ = false;
  bool finished_ = false;
};

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Per-shard summary (mpiguard corpus info / verify).
struct ShardInfo {
  std::filesystem::path path;
  std::uint64_t case_count = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t fingerprint = 0;
};

/// mmap-backed reader over a corpus directory. Construction scans and
/// fully validates every shard (throws io::FormatError naming the bad
/// shard). Cases are addressed by global ordinal [0, size()) in
/// shard-major order, or by (shard, ordinal-within-shard) via at().
///
/// Shards are mapped lazily on first access; in sequential mode (the
/// streaming-eval default) at most one shard stays mapped at a time, so
/// resident memory is bounded by the largest shard regardless of corpus
/// size. load() decodes straight out of the mapping — records are never
/// copied into an intermediate buffer.
class CorpusReader final : public CaseSource {
 public:
  explicit CorpusReader(std::filesystem::path dir, bool sequential = true);
  ~CorpusReader() override;

  CorpusReader(const CorpusReader&) = delete;
  CorpusReader& operator=(const CorpusReader&) = delete;

  const std::string& name() const override { return name_; }
  std::size_t size() const override;
  bool incorrect(std::size_t i) const override;
  std::string label_name(std::size_t i) const override;
  std::uint64_t case_id(std::size_t i) const override;
  datasets::Case load(std::size_t i) const override;

  std::size_t shard_count() const;
  const std::vector<ShardInfo>& shards() const { return infos_; }

  /// Global ordinal of case `ordinal` within shard `shard`.
  std::size_t global_index(std::size_t shard, std::size_t ordinal) const;
  datasets::Case at(std::size_t shard, std::size_t ordinal) const;

  /// Forward iteration over the whole corpus in (shard, ordinal) order;
  /// completed shards are unmapped behind the cursor.
  void for_each(
      const std::function<void(std::size_t, const datasets::Case&)>& fn) const;

  /// Releases every cached mapping (memory back to the floor).
  void release_mappings() const;

 private:
  struct Shard;
  struct CaseMeta;

  datasets::Case load_meta(const CaseMeta& m) const;
  void ensure_mapped(std::size_t shard) const;

  std::filesystem::path dir_;
  std::string name_;
  bool sequential_;
  mutable std::vector<Shard> shards_;
  std::vector<ShardInfo> infos_;
  std::vector<CaseMeta> meta_;
  std::vector<std::size_t> shard_first_;  // global index of shard's case 0
};

}  // namespace mpidetect::corpus
