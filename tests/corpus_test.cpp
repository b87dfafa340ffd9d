// Corpus-format torture tests: the .mpcs shard format must round-trip
// cases bit-identically, reject every corrupt byte of a shard at open
// (header checksum + zero padding + whole-shard content fingerprint
// leave no byte uncovered), reject truncation, trailing bytes, future
// versions and fingerprint mismatches with io::FormatError — never a
// crash, a hang or a silently different case — and catch post-open file
// modification on load(). Plus the fuzzer's out-of-core guarantees:
// divergences stream to disk under a bounded in-memory cap, and corpus
// distillation is deterministic across run() and distill().
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/fuzzer.hpp"
#include "corpus/corpus.hpp"
#include "corpus/record.hpp"
#include "datasets/mbi.hpp"
#include "io/fuzz_io.hpp"
#include "io/serialize.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace mpidetect {
namespace {

namespace fs = std::filesystem;

/// Unique per-test scratch directory, removed on destruction.
struct TempDir {
  fs::path path;

  TempDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path = fs::temp_directory_path() /
           (std::string("mpidetect_corpus_") + info->name());
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  fs::path dir(const char* name) const { return path / name; }
};

datasets::Dataset small_mbi(double scale = 0.05, std::uint64_t seed = 99) {
  datasets::MbiConfig cfg;
  cfg.scale = scale;
  cfg.seed = seed;
  return datasets::generate_mbi(cfg);
}

corpus::WriteStats write_corpus(const fs::path& dir,
                                const datasets::Dataset& ds,
                                corpus::WriterOptions opts = {}) {
  corpus::CorpusWriter w(dir, opts);
  for (const auto& c : ds.cases) w.add(c);
  return w.finish();
}

std::vector<char> read_bytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << p;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const fs::path& p, const std::vector<char>& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << p;
}

void put_u64_le(std::vector<char>& b, std::size_t off, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    b[off + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

/// Rewrites the header checksum over bytes [0, kHeaderHashedBytes) so a
/// deliberate header patch reaches the check it is aimed at instead of
/// tripping the checksum first.
void reseal_header(std::vector<char>& bytes) {
  ASSERT_GE(bytes.size(), corpus::kSectorSize);
  const std::uint64_t fp =
      fnv1a64(kFnvOffsetBasis, bytes.data(), corpus::kHeaderHashedBytes);
  put_u64_le(bytes, corpus::kHeaderHashedBytes, fp);
}

fs::path only_shard(const fs::path& dir) {
  return dir / "shard-000000.mpcs";
}

// ---- round trips ------------------------------------------------------------

TEST(CorpusFormat, RoundTripIsBitIdentical) {
  TempDir tmp;
  const auto ds = small_mbi();
  const auto stats = write_corpus(tmp.dir("c"), ds);
  EXPECT_EQ(stats.cases, ds.size());
  EXPECT_GE(stats.shards, 1u);

  const corpus::CorpusReader r(tmp.dir("c"));
  const corpus::DatasetSource ref(ds);
  ASSERT_EQ(r.size(), ds.size());
  for (std::size_t i = 0; i < r.size(); ++i) {
    // Metadata answered from the index alone must agree with the
    // in-memory source...
    EXPECT_EQ(r.incorrect(i), ref.incorrect(i)) << "case " << i;
    EXPECT_EQ(r.label_name(i), ref.label_name(i)) << "case " << i;
    EXPECT_EQ(r.case_id(i), ref.case_id(i)) << "case " << i;
    // ...and the decoded case must re-encode to the exact same bytes —
    // bit identity, not structural similarity.
    EXPECT_EQ(corpus::encode_case(r.load(i)),
              corpus::encode_case(ds.cases[i]))
        << "case " << i << " (" << ds.cases[i].name << ")";
  }
}

TEST(CorpusFormat, CrossShardIterationFollowsInsertionOrder) {
  TempDir tmp;
  const auto ds = small_mbi();
  corpus::WriterOptions opts;
  opts.max_cases_per_shard = 7;  // force many shards
  const auto stats = write_corpus(tmp.dir("c"), ds, opts);
  ASSERT_GT(stats.shards, 3u);

  const corpus::CorpusReader r(tmp.dir("c"));
  ASSERT_EQ(r.shard_count(), stats.shards);

  std::vector<std::string> seen;
  r.for_each([&](std::size_t i, const datasets::Case& c) {
    EXPECT_EQ(i, seen.size());
    seen.push_back(c.name);
  });
  ASSERT_EQ(seen.size(), ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(seen[i], ds.cases[i].name) << "global ordinal " << i;
  }

  // (shard, ordinal) addressing agrees with global ordinals.
  std::size_t global = 0;
  for (std::size_t s = 0; s < r.shard_count(); ++s) {
    for (std::size_t k = 0; k < r.shards()[s].case_count; ++k, ++global) {
      EXPECT_EQ(r.global_index(s, k), global);
      EXPECT_EQ(r.at(s, k).name, ds.cases[global].name);
    }
  }
  EXPECT_EQ(global, ds.size());
}

TEST(CorpusFormat, RandomAccessModeReadsAcrossShards) {
  TempDir tmp;
  const auto ds = small_mbi();
  corpus::WriterOptions opts;
  opts.max_cases_per_shard = 5;
  write_corpus(tmp.dir("c"), ds, opts);

  const corpus::CorpusReader r(tmp.dir("c"), /*sequential=*/false);
  // Zig-zag across shard boundaries; every access must see its case.
  for (std::size_t i = 0; i < r.size(); ++i) {
    const std::size_t j = (i % 2 == 0) ? i / 2 : r.size() - 1 - i / 2;
    EXPECT_EQ(r.load(j).name, ds.cases[j].name);
  }
  r.release_mappings();
  EXPECT_EQ(r.load(0).name, ds.cases[0].name);  // remaps on demand
}

TEST(CorpusFormat, ShardRotationRespectsByteBound) {
  TempDir tmp;
  const auto ds = small_mbi();
  corpus::WriterOptions opts;
  opts.max_shard_bytes = 32 << 10;  // far below the corpus total
  const auto stats = write_corpus(tmp.dir("c"), ds, opts);
  ASSERT_GT(stats.shards, 1u);

  const corpus::CorpusReader r(tmp.dir("c"));
  for (const auto& s : r.shards()) {
    EXPECT_GE(s.case_count, 1u) << s.path;
  }
  std::size_t total = 0;
  for (const auto& s : r.shards()) total += s.case_count;
  EXPECT_EQ(total, ds.size());
}

TEST(CorpusFormat, EmptyCorpusRoundTrips) {
  TempDir tmp;
  corpus::CorpusWriter w(tmp.dir("c"));
  const auto stats = w.finish();
  EXPECT_EQ(stats.cases, 0u);
  EXPECT_EQ(stats.shards, 1u);

  const corpus::CorpusReader r(tmp.dir("c"));
  EXPECT_EQ(r.size(), 0u);
  r.for_each([](std::size_t, const datasets::Case&) {
    FAIL() << "iterated a case in an empty corpus";
  });
}

TEST(CorpusFormat, SingleCaseShardRoundTrips) {
  TempDir tmp;
  const auto ds = small_mbi();
  corpus::CorpusWriter w(tmp.dir("c"));
  w.add(ds.cases.front());
  const auto stats = w.finish();
  EXPECT_EQ(stats.cases, 1u);
  EXPECT_EQ(stats.shards, 1u);

  const corpus::CorpusReader r(tmp.dir("c"));
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(corpus::encode_case(r.load(0)),
            corpus::encode_case(ds.cases.front()));
}

TEST(CorpusFormat, FinishIsIdempotentAndAbandonLeavesNothing) {
  TempDir tmp;
  const auto ds = small_mbi();
  {
    corpus::CorpusWriter w(tmp.dir("done"));
    w.add(ds.cases.front());
    const auto s1 = w.finish();
    const auto s2 = w.finish();
    EXPECT_EQ(s1.cases, s2.cases);
    EXPECT_EQ(s1.shards, s2.shards);
  }
  {
    corpus::CorpusWriter w(tmp.dir("abandoned"));
    w.add(ds.cases.front());
    // no finish(): destructor must abort the temp shard
  }
  std::size_t leftovers = 0;
  for (const auto& e : fs::directory_iterator(tmp.dir("abandoned"))) {
    ++leftovers;
    ADD_FAILURE() << "abandoned writer left " << e.path();
  }
  EXPECT_EQ(leftovers, 0u);
}

// ---- corruption -------------------------------------------------------------

/// One small (single-case) shard as raw bytes, plus its directory.
struct SmallShard {
  TempDir tmp;
  fs::path dir;
  fs::path shard;
  std::vector<char> bytes;

  SmallShard() : dir(tmp.dir("c")) {
    const auto ds = small_mbi();
    corpus::CorpusWriter w(dir);
    w.add(ds.cases.front());
    w.finish();
    shard = only_shard(dir);
    bytes = read_bytes(shard);
  }
};

TEST(CorpusTorture, EveryFlippedByteIsRejectedAtOpen) {
  SmallShard s;
  ASSERT_GT(s.bytes.size(), corpus::kSectorSize);
  // Flip every single byte of the shard in turn: the header checksum,
  // the explicit zero-padding check and the whole-shard content
  // fingerprint must leave NO byte whose corruption goes unnoticed.
  for (std::size_t off = 0; off < s.bytes.size(); ++off) {
    auto corrupted = s.bytes;
    corrupted[off] = static_cast<char>(corrupted[off] ^ 0x5a);
    write_bytes(s.shard, corrupted);
    EXPECT_THROW(corpus::CorpusReader r(s.dir), io::FormatError)
        << "flipped byte at offset " << off << " was accepted";
  }
  write_bytes(s.shard, s.bytes);
  EXPECT_NO_THROW(corpus::CorpusReader r(s.dir));
}

TEST(CorpusTorture, TruncationIsRejectedAtOpen) {
  SmallShard s;
  const std::size_t full = s.bytes.size();
  // Header cut short, payload cut mid-sector, index cut mid-entry, and
  // a one-byte tail loss.
  const std::size_t cuts[] = {0,
                              4,
                              corpus::kSectorSize - 1,
                              corpus::kSectorSize,
                              corpus::kSectorSize + 17,
                              full - corpus::kIndexEntrySize,
                              full - 1};
  for (const std::size_t cut : cuts) {
    ASSERT_LT(cut, full);
    auto truncated = s.bytes;
    truncated.resize(cut);
    write_bytes(s.shard, truncated);
    EXPECT_THROW(corpus::CorpusReader r(s.dir), io::FormatError)
        << "truncation to " << cut << " bytes was accepted";
  }
}

TEST(CorpusTorture, TrailingBytesAreRejectedAtOpen) {
  SmallShard s;
  auto padded = s.bytes;
  padded.push_back('\0');
  write_bytes(s.shard, padded);
  EXPECT_THROW(corpus::CorpusReader r(s.dir), io::FormatError);
}

TEST(CorpusTorture, FutureVersionIsRejectedAtOpen) {
  SmallShard s;
  auto patched = s.bytes;
  patched[4] = static_cast<char>(corpus::kShardVersion + 1);
  reseal_header(patched);  // reach the version check, not the checksum
  write_bytes(s.shard, patched);
  EXPECT_THROW(corpus::CorpusReader r(s.dir), io::FormatError);
}

TEST(CorpusTorture, ContentFingerprintMismatchIsRejectedAtOpen) {
  SmallShard s;
  auto patched = s.bytes;
  // Forge the stored content fingerprint (header offset 48) and reseal
  // the header so ONLY the content check can catch it.
  put_u64_le(patched, 48, 0xdeadbeefdeadbeefULL);
  reseal_header(patched);
  write_bytes(s.shard, patched);
  EXPECT_THROW(corpus::CorpusReader r(s.dir), io::FormatError);
}

TEST(CorpusTorture, PostOpenModificationIsCaughtOnLoad) {
  SmallShard s;
  const corpus::CorpusReader r(s.dir);
  ASSERT_EQ(r.size(), 1u);
  // Corrupt a payload byte AFTER open-time validation passed; the
  // per-record checksum re-verified on load() must catch it.
  auto corrupted = s.bytes;
  corrupted[corpus::kSectorSize + 64] ^= 0x01;
  write_bytes(s.shard, corrupted);
  EXPECT_THROW(r.load(0), io::FormatError);
}

TEST(CorpusTorture, MissingAndEmptyDirectoriesAreRejected) {
  TempDir tmp;
  EXPECT_THROW(corpus::CorpusReader r(tmp.dir("nonexistent")),
               io::FormatError);
  fs::create_directories(tmp.dir("hollow"));
  EXPECT_THROW(corpus::CorpusReader r(tmp.dir("hollow")), io::FormatError);
}

// ---- fuzzer out-of-core guarantees -----------------------------------------

TEST(FuzzStreaming, IncrementalRepWriterMatchesOneShotSave) {
  TempDir tmp;
  std::vector<io::FuzzRecord> records(3);
  records[0].template_id = "master_worker";
  records[1].template_id = "master_worker";
  records[1].dropped = {2, 5};
  records[2].template_id = "master_worker";
  records[2].detail = "nondeterministic";

  const fs::path one_shot = tmp.path / "one_shot.mpfz";
  const fs::path streamed = tmp.path / "streamed.mpfz";
  io::save_fuzz_corpus(one_shot, records);
  {
    io::FuzzCorpusWriter w(streamed);
    for (const auto& r : records) w.add(r);
    EXPECT_FALSE(fs::exists(streamed));  // published only by close()
    w.close();
  }
  EXPECT_EQ(read_bytes(streamed), read_bytes(one_shot));
  EXPECT_EQ(io::load_fuzz_corpus(streamed), records);

  {
    io::FuzzCorpusWriter w(tmp.path / "abandoned.mpfz");
    w.add(records[0]);
    // destructor without close(): no file, no temp litter
  }
  EXPECT_FALSE(fs::exists(tmp.path / "abandoned.mpfz"));
  EXPECT_FALSE(fs::exists(tmp.path / "abandoned.mpfz.tmp"));
}

/// Registers (once) a detector that always throws, so a campaign yields
/// one deterministic ToolError divergence per run.
void register_throwing_detector() {
  auto& registry = core::DetectorRegistry::global();
  if (registry.contains("test-thrower")) return;
  class Thrower final : public core::Detector {
   public:
    std::string_view name() const override { return "test-thrower"; }
    core::DetectorKind kind() const override {
      return core::DetectorKind::Static;
    }
    std::unique_ptr<core::Detector> clone() const override {
      return std::make_unique<Thrower>();
    }
    core::Verdict evaluate(const datasets::Dataset&, std::size_t) override {
      throw std::runtime_error("synthetic tool failure");
    }
  };
  registry.add("test-thrower",
               [](const core::DetectorConfig&) -> std::unique_ptr<core::Detector> {
                 return std::make_unique<Thrower>();
               });
}

TEST(FuzzStreaming, DivergenceCapBoundsMemoryWhileCorpusKeepsAll) {
  TempDir tmp;
  register_throwing_detector();

  core::FuzzConfig cfg;
  cfg.seed = 7;
  cfg.runs = 12;
  cfg.schedules = 2;
  cfg.shrink = false;
  cfg.detectors = {"test-thrower"};
  cfg.max_kept_divergences = 3;
  cfg.corpus_path = (tmp.path / "div.mpfz").string();
  cfg.corpus_dir = tmp.dir("distilled").string();

  core::DifferentialFuzzer fuzzer(cfg);
  const auto report = fuzzer.run();

  // One ToolError per run: the full count is reported, the in-memory
  // list is capped, and the on-disk stream still carries every record.
  EXPECT_EQ(report.divergence_count, 12u);
  EXPECT_EQ(report.divergences.size(), 3u);
  EXPECT_FALSE(report.ok());
  const auto streamed = io::load_fuzz_corpus(cfg.corpus_path);
  EXPECT_EQ(streamed.size(), 12u);

  // Every draw was distilled, divergent or not, into a readable corpus.
  EXPECT_EQ(report.distilled_cases, 12u);
  const corpus::CorpusReader distilled(cfg.corpus_dir);
  EXPECT_EQ(distilled.size(), 12u);
}

TEST(FuzzStreaming, DistillMatchesCampaignDistillation) {
  TempDir tmp;
  core::FuzzConfig cfg;
  cfg.seed = 11;
  cfg.runs = 15;
  cfg.schedules = 2;
  core::DifferentialFuzzer fuzzer(cfg);

  // The fast path (no sweeps, no detectors) must produce byte-identical
  // shards to a full campaign with --corpus-dir: same draw sequence,
  // same records, same rotation.
  const auto stats = fuzzer.distill(tmp.dir("fast"), cfg.runs);
  EXPECT_EQ(stats.cases, 15u);

  core::FuzzConfig campaign = cfg;
  campaign.corpus_dir = tmp.dir("campaign").string();
  core::DifferentialFuzzer full(campaign);
  const auto report = full.run();
  EXPECT_EQ(report.distilled_cases, stats.cases);
  EXPECT_EQ(report.distilled_shards, stats.shards);

  const corpus::CorpusReader a(tmp.dir("fast"));
  const corpus::CorpusReader b(tmp.dir("campaign"));
  ASSERT_EQ(a.shard_count(), b.shard_count());
  for (std::size_t s = 0; s < a.shard_count(); ++s) {
    EXPECT_EQ(read_bytes(a.shards()[s].path), read_bytes(b.shards()[s].path))
        << "shard " << s;
  }
}

// Sanitizers inflate resident memory unpredictably; the RSS ceiling is
// only meaningful in a plain build (the hard gate for the scale claim
// lives in BENCH_corpus.json via bench/corpus_stream).
#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__) && \
    !__has_feature(address_sanitizer) && !__has_feature(thread_sanitizer)
#define MPIDETECT_RSS_TEST 1
#else
#define MPIDETECT_RSS_TEST 0
#endif

#if MPIDETECT_RSS_TEST
std::size_t peak_rss_bytes() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;
}

TEST(FuzzStreaming, SequentialReadKeepsResidencyBelowCorpusSize) {
  TempDir tmp;
  core::FuzzConfig cfg;
  cfg.seed = 3;
  core::DifferentialFuzzer fuzzer(cfg);
  corpus::WriterOptions wopts;
  wopts.max_shard_bytes = 1 << 20;  // many small shards
  const auto stats = fuzzer.distill(tmp.dir("c"), 1500, wopts);
  ASSERT_GE(stats.cases, 1500u);
  ASSERT_GT(stats.shards, 3u);

  const std::size_t before = peak_rss_bytes();
  const corpus::CorpusReader r(tmp.dir("c"));
  std::size_t n = 0;
  r.for_each([&](std::size_t, const datasets::Case&) { ++n; });
  EXPECT_EQ(n, stats.cases);
  const std::size_t grew = peak_rss_bytes() - before;

  // Sequential iteration keeps at most one shard (1 MiB) mapped; the
  // whole corpus is several times larger. Generous slack for allocator
  // noise — the point is "bounded by a shard, not by the corpus".
  EXPECT_LT(grew, stats.bytes / 2)
      << "streaming a " << stats.bytes << "-byte corpus grew RSS by " << grew;
}
#endif  // MPIDETECT_RSS_TEST

// ---- record format versioning ----------------------------------------------
// MPCR v2 widened the statement/function enum ranges (ThreadBlock,
// nonblocking collectives, Sendrecv/Probe, wait family) without touching
// the layout. A v1 record must decode byte-identically under the v1
// caps, and a v1 record carrying v2-only enum values is corrupt — it
// must fail loudly, never crash or decode to garbage.

using progmodel::Arg;
using progmodel::Expr;
using progmodel::Stmt;
using mpi::Func;

datasets::Case record_fixture(std::vector<Stmt> main_body) {
  datasets::Case c;
  c.name = "fixture";
  c.suite = datasets::Suite::Mbi;
  c.mbi_label = mpi::MbiLabel::Correct;
  c.incorrect = false;
  c.program.name = "fixture";
  c.program.nprocs = 2;
  c.program.main_body = std::move(main_body);
  c.source_lines = c.program.line_count();
  return c;
}

std::vector<Stmt> legacy_body() {
  std::vector<Stmt> v;
  v.push_back(Stmt::decl_int("rank"));
  v.push_back(Stmt::decl_buf("buf", ir::Type::I32, Expr::lit(4)));
  v.push_back(Stmt::mpi(Func::Init, {}));
  v.push_back(Stmt::mpi(Func::CommRank,
                        {Arg::val(mpi::kCommWorld), Arg::addr("rank")}));
  v.push_back(Stmt::if_(
      Expr::eq(Expr::ref("rank"), Expr::lit(0)),
      {Stmt::mpi(Func::Send,
                 {Arg::buf("buf"), Arg::val(4),
                  Arg::val(static_cast<std::int64_t>(mpi::Datatype::Int)),
                  Arg::val(1), Arg::val(0), Arg::val(mpi::kCommWorld)})},
      {Stmt::mpi(Func::Recv,
                 {Arg::buf("buf"), Arg::val(4),
                  Arg::val(static_cast<std::int64_t>(mpi::Datatype::Int)),
                  Arg::val(0), Arg::val(0), Arg::val(mpi::kCommWorld),
                  Arg::null()})}));
  v.push_back(Stmt::mpi(Func::Finalize, {}));
  v.push_back(Stmt::ret(Expr::lit(0)));
  return v;
}

/// Record layout: 4-byte magic "MPCR", then the u32 version
/// little-endian at offset 4.
void patch_record_version(std::vector<char>& bytes, std::uint32_t v) {
  ASSERT_GE(bytes.size(), 8u);
  for (int i = 0; i < 4; ++i) {
    bytes[4 + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

TEST(RecordVersioning, WriterEmitsVersion2) {
  const auto bytes = corpus::encode_case(record_fixture(legacy_body()));
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(std::string_view(bytes.data(), 4), "MPCR");
  EXPECT_EQ(bytes[4], 2);
  EXPECT_EQ(bytes[5], 0);
  EXPECT_EQ(bytes[6], 0);
  EXPECT_EQ(bytes[7], 0);
}

TEST(RecordVersioning, V1LegacyRecordDecodesByteIdentically) {
  const auto c = record_fixture(legacy_body());
  const auto v2 = corpus::encode_case(c);
  auto v1 = v2;
  patch_record_version(v1, 1);
  // Only the header differs: a v1 record is the same layout.
  const auto back = corpus::decode_case(v1.data(), v1.size(), "v1-fixture");
  // Re-encoding the decoded case (writers always emit v2) must
  // reproduce the original v2 bytes exactly.
  EXPECT_EQ(corpus::encode_case(back), v2);
}

TEST(RecordVersioning, V1RejectsThreadBlockStatements) {
  auto body = legacy_body();
  body.insert(body.end() - 2,
              Stmt::thread_block({Stmt::decl_int("a")},
                                 {Stmt::decl_int("b")}));
  auto bytes = corpus::encode_case(record_fixture(std::move(body)));
  patch_record_version(bytes, 1);
  EXPECT_THROW(corpus::decode_case(bytes.data(), bytes.size(), "v1-fixture"),
               io::FormatError);
}

TEST(RecordVersioning, V1RejectsWidenedFuncs) {
  auto body = legacy_body();
  body.insert(body.end() - 2, Stmt::decl_handle("req",
                                                progmodel::HandleKind::Request));
  body.insert(body.end() - 2,
              Stmt::mpi(Func::Ibarrier,
                        {Arg::val(mpi::kCommWorld), Arg::addr("req")}));
  body.insert(body.end() - 2,
              Stmt::mpi(Func::Wait, {Arg::addr("req"), Arg::null()}));
  auto bytes = corpus::encode_case(record_fixture(std::move(body)));
  patch_record_version(bytes, 1);
  EXPECT_THROW(corpus::decode_case(bytes.data(), bytes.size(), "v1-fixture"),
               io::FormatError);
}

TEST(RecordVersioning, FutureRecordVersionIsRejected) {
  auto bytes = corpus::encode_case(record_fixture(legacy_body()));
  patch_record_version(bytes, 3);
  EXPECT_THROW(corpus::decode_case(bytes.data(), bytes.size(), "v3-fixture"),
               io::FormatError);
}

TEST(RecordVersioning, WidenedCaseRoundTripsBitIdentically) {
  auto body = legacy_body();
  body.insert(body.end() - 2,
              Stmt::decl_buf("sb", ir::Type::I32, Expr::lit(4)));
  body.insert(body.end() - 2, Stmt::decl_req_array("reqs", 2));
  body.insert(body.end() - 2,
              Stmt::mpi(Func::Ibarrier, {Arg::val(mpi::kCommWorld),
                                         Arg::buf_at("reqs", Expr::lit(0))}));
  body.insert(body.end() - 2,
              Stmt::mpi(Func::Sendrecv,
                        {Arg::buf("sb"), Arg::val(4),
                         Arg::val(static_cast<std::int64_t>(mpi::Datatype::Int)),
                         Arg::val(mpi::kProcNull), Arg::val(0), Arg::buf("buf"),
                         Arg::val(4),
                         Arg::val(static_cast<std::int64_t>(mpi::Datatype::Int)),
                         Arg::val(mpi::kProcNull), Arg::val(0),
                         Arg::val(mpi::kCommWorld), Arg::null()}));
  body.insert(body.end() - 2,
              Stmt::mpi(Func::Waitall, {Arg::val(1), Arg::buf("reqs"),
                                        Arg::null()}));
  body.insert(body.end() - 2,
              Stmt::thread_block_shared("sb", {Stmt::decl_int("a")},
                                        {Stmt::buf_store("sb", Expr::lit(0),
                                                         Expr::lit(1))}));
  const auto c = record_fixture(std::move(body));
  const auto bytes = corpus::encode_case(c);
  const auto back = corpus::decode_case(bytes.data(), bytes.size(), "v2");
  EXPECT_EQ(corpus::encode_case(back), bytes);
}

}  // namespace
}  // namespace mpidetect
