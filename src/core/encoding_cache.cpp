#include "core/encoding_cache.hpp"

#include <bit>
#include <filesystem>
#include <optional>

#include "io/encoding_io.hpp"
#include "support/check.hpp"
#include "support/faultpoint.hpp"

namespace mpidetect::core {

namespace {

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t hash_u64(std::uint64_t h, std::uint64_t v) {
  return fnv1a(h, &v, sizeof v);
}

std::uint64_t hash_str(std::uint64_t h, const std::string& s) {
  h = hash_u64(h, s.size());
  return fnv1a(h, s.data(), s.size());
}

// ---- structural program hash ------------------------------------------------
// The fingerprint must cover the program BODIES, not just case names and
// labels: datasets can differ only in code content (e.g. CorrBench with
// vs without the mpitest.h preamble, or a generator change across
// builds), and serving a spilled encoding for different code would be
// silently wrong verdicts.

std::uint64_t hash_expr(std::uint64_t h, const progmodel::Expr& e) {
  h = hash_u64(h, static_cast<std::uint64_t>(e.kind));
  h = hash_u64(h, static_cast<std::uint64_t>(e.ival));
  h = hash_u64(h, std::bit_cast<std::uint64_t>(e.fval));
  h = hash_str(h, e.var);
  h = hash_u64(h, static_cast<std::uint64_t>(e.op));
  h = hash_u64(h, static_cast<std::uint64_t>(e.pred));
  h = hash_u64(h, e.kids.size());
  for (const auto& k : e.kids) h = hash_expr(h, k);
  return h;
}

std::uint64_t hash_arg(std::uint64_t h, const progmodel::Arg& a) {
  h = hash_u64(h, static_cast<std::uint64_t>(a.kind));
  h = hash_expr(h, a.value);
  h = hash_str(h, a.name);
  h = hash_expr(h, a.offset);
  h = hash_u64(h, a.has_offset);
  return h;
}

std::uint64_t hash_stmt(std::uint64_t h, const progmodel::Stmt& s) {
  h = hash_u64(h, static_cast<std::uint64_t>(s.kind));
  h = hash_str(h, s.name);
  h = hash_u64(h, static_cast<std::uint64_t>(s.handle));
  h = hash_u64(h, static_cast<std::uint64_t>(s.elem));
  h = hash_expr(h, s.a);
  h = hash_expr(h, s.b);
  h = hash_expr(h, s.c);
  h = hash_u64(h, s.has_init);
  h = hash_u64(h, static_cast<std::uint64_t>(s.func));
  h = hash_u64(h, s.args.size());
  for (const auto& a : s.args) h = hash_arg(h, a);
  h = hash_u64(h, s.body.size());
  for (const auto& b : s.body) h = hash_stmt(h, b);
  h = hash_u64(h, s.otherwise.size());
  for (const auto& o : s.otherwise) h = hash_stmt(h, o);
  h = hash_u64(h, static_cast<std::uint64_t>(s.iters));
  return h;
}

std::uint64_t hash_program(std::uint64_t h, const progmodel::Program& p) {
  h = hash_str(h, p.name);
  h = hash_u64(h, static_cast<std::uint64_t>(p.nprocs));
  h = hash_u64(h, p.functions.size());
  for (const auto& f : p.functions) {
    h = hash_str(h, f.name);
    h = hash_u64(h, f.body.size());
    for (const auto& s : f.body) h = hash_stmt(h, s);
  }
  h = hash_u64(h, p.main_body.size());
  for (const auto& s : p.main_body) h = hash_stmt(h, s);
  return h;
}

io::EncodingKey spill_key(std::uint64_t fingerprint, std::size_t size, int opt,
                          int norm, std::uint64_t seed) {
  io::EncodingKey k;
  k.fingerprint = fingerprint;
  k.size = size;
  k.opt = static_cast<std::int32_t>(opt);
  k.norm = static_cast<std::int32_t>(norm);
  k.vocab_seed = seed;
  return k;
}

/// Loads a spilled encoding, treating every failure mode — missing
/// file, truncation, bad magic/version, key mismatch — as a miss.
template <typename Set, Set (*load)(io::Reader&, const io::EncodingKey&)>
std::optional<Set> try_load_spill(const std::filesystem::path& path,
                                  const io::EncodingKey& key) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return std::nullopt;
  try {
    std::optional<Set> out;
    io::load_file(path, [&](io::Reader& r) { out = load(r, key); });
    return out;
  } catch (const io::FormatError&) {
    return std::nullopt;
  }
}

/// Best-effort spill write: a full disk or a concurrent writer must
/// degrade the cache to in-memory, not crash the run.
template <typename Set, void (*save)(io::Writer&, const io::EncodingKey&,
                                     const Set&)>
bool try_save_spill(const std::filesystem::path& path,
                    const io::EncodingKey& key, const Set& value) {
  // The injected ENOSPC proves the degrade-to-memory claim: the cache
  // keeps serving, it just stops spilling.
  if (MPIDETECT_FAULTPOINT("cache.spill.enospc")) return false;
  try {
    io::save_file(path, [&](io::Writer& w) { save(w, key, value); });
    return true;
  } catch (const io::FormatError&) {
    return false;
  }
}

}  // namespace

std::uint64_t EncodingCache::fingerprint(const datasets::Dataset& ds) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv1a(h, ds.name.data(), ds.name.size());
  for (const auto& c : ds.cases) {
    h = fnv1a(h, c.name.data(), c.name.size());
    const unsigned char tag =
        static_cast<unsigned char>(c.incorrect) |
        static_cast<unsigned char>(static_cast<unsigned>(c.suite) << 1) |
        static_cast<unsigned char>(static_cast<unsigned>(c.mbi_label) << 2);
    h = fnv1a(h, &tag, 1);
    const auto corr = static_cast<unsigned char>(c.corr_label);
    h = fnv1a(h, &corr, 1);
    // The code itself: two datasets with equal names/labels but
    // different program bodies (corr vs corr+header, generator drift)
    // must never share a cache slot or an on-disk spill file.
    h = hash_u64(h, c.source_lines);
    h = hash_program(h, c.program);
  }
  return h;
}

EncodingCache::Key EncodingCache::feature_key(const datasets::Dataset& ds,
                                              passes::OptLevel opt,
                                              ir2vec::Normalization norm,
                                              std::uint64_t vocab_seed) {
  return Key{fingerprint(ds), ds.size(), static_cast<int>(opt),
             static_cast<int>(norm), vocab_seed};
}

EncodingCache::Key EncodingCache::graph_key(const datasets::Dataset& ds,
                                            passes::OptLevel opt) {
  return Key{fingerprint(ds), ds.size(), static_cast<int>(opt), -1, 0};
}

const FeatureSet& EncodingCache::features(const datasets::Dataset& ds,
                                          passes::OptLevel opt,
                                          ir2vec::Normalization norm,
                                          std::uint64_t vocab_seed,
                                          unsigned threads) {
  return feature_entry(ds, opt, norm, vocab_seed, threads).set;
}

const FeatureEntry& EncodingCache::feature_entry(const datasets::Dataset& ds,
                                                 passes::OptLevel opt,
                                                 ir2vec::Normalization norm,
                                                 std::uint64_t vocab_seed,
                                                 unsigned threads) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  const Key key = feature_key(ds, opt, norm, vocab_seed);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = features_.find(key);
  if (it == features_.end()) {
    const io::EncodingKey skey =
        spill_key(key.fingerprint, key.size, key.opt, key.norm, key.seed);
    std::unique_ptr<FeatureEntry> fs;
    if (!spill_dir_.empty()) {
      const auto path =
          std::filesystem::path(spill_dir_) / io::feature_file_name(skey);
      if (auto loaded =
              try_load_spill<FeatureSet, io::load_feature_set>(path, skey)) {
        fs = std::make_unique<FeatureEntry>(std::move(*loaded));
        disk_hits_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (!fs) {
      fs = std::make_unique<FeatureEntry>(
          extract_features(ds, opt, norm, vocab_seed, threads));
      if (!spill_dir_.empty()) {
        const auto path =
            std::filesystem::path(spill_dir_) / io::feature_file_name(skey);
        if (try_save_spill<FeatureSet, io::save_feature_set>(path, skey,
                                                             fs->set)) {
          disk_writes_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    it = features_.emplace(key, std::move(fs)).first;
  }
  return *it->second;
}

const GraphSet& EncodingCache::graphs(const datasets::Dataset& ds,
                                      passes::OptLevel opt, unsigned threads) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  const Key key = graph_key(ds, opt);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = graphs_.find(key);
  if (it == graphs_.end()) {
    const io::EncodingKey skey =
        spill_key(key.fingerprint, key.size, key.opt, key.norm, key.seed);
    std::unique_ptr<GraphSet> gs;
    if (!spill_dir_.empty()) {
      const auto path =
          std::filesystem::path(spill_dir_) / io::graph_file_name(skey);
      if (auto loaded =
              try_load_spill<GraphSet, io::load_graph_set>(path, skey)) {
        gs = std::make_unique<GraphSet>(std::move(*loaded));
        disk_hits_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (!gs) {
      gs = std::make_unique<GraphSet>(extract_graphs(ds, opt, threads));
      if (!spill_dir_.empty()) {
        const auto path =
            std::filesystem::path(spill_dir_) / io::graph_file_name(skey);
        if (try_save_spill<GraphSet, io::save_graph_set>(path, skey, *gs)) {
          disk_writes_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    it = graphs_.emplace(key, std::move(gs)).first;
  }
  return *it->second;
}

void EncodingCache::put_features(const datasets::Dataset& ds,
                                 passes::OptLevel opt,
                                 ir2vec::Normalization norm,
                                 std::uint64_t vocab_seed, FeatureSet fs) {
  MPIDETECT_EXPECTS(fs.size() == ds.size());
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] =
      features_.emplace(feature_key(ds, opt, norm, vocab_seed),
                        std::make_unique<FeatureEntry>(std::move(fs)));
  if (!inserted) {
    throw ContractViolation("EncodingCache::put_features: slot occupied for "
                            "dataset '" + ds.name + "'");
  }
}

void EncodingCache::erase(const datasets::Dataset& ds) {
  const std::uint64_t fp = fingerprint(ds);
  std::lock_guard<std::mutex> lock(mu_);
  // In-memory tier only: spill files are keyed by content fingerprint
  // and may be legitimately shared with other Dataset objects holding
  // the same cases (and with future processes), so dropping one
  // caller's view must not delete them. Ad-hoc batches avoid polluting
  // the spill by never going through the cache (GnnDetector::run).
  std::erase_if(features_,
                [&](const auto& e) { return e.first.fingerprint == fp; });
  std::erase_if(graphs_,
                [&](const auto& e) { return e.first.fingerprint == fp; });
}

std::size_t EncodingCache::feature_set_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return features_.size();
}

std::size_t EncodingCache::graph_set_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return graphs_.size();
}

void EncodingCache::set_spill_dir(std::string dir) {
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      throw ContractViolation("EncodingCache: cannot create spill dir '" +
                              dir + "': " + ec.message());
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  spill_dir_ = std::move(dir);
}

std::size_t EncodingCache::disk_hits() const {
  return disk_hits_.load(std::memory_order_relaxed);
}

std::size_t EncodingCache::disk_writes() const {
  return disk_writes_.load(std::memory_order_relaxed);
}

std::size_t EncodingCache::lookups() const {
  return lookups_.load(std::memory_order_relaxed);
}

namespace {

/// Reverse-maps a unified label string onto the suite enums so skeleton
/// cases report the same label_name() as the original dataset.
void set_case_label(datasets::Case& c, const std::string& label) {
  for (unsigned i = 0; i < mpi::kNumMbiLabels; ++i) {
    const auto l = static_cast<mpi::MbiLabel>(i);
    if (label == mpi::mbi_label_name(l)) {
      c.suite = datasets::Suite::Mbi;
      c.mbi_label = l;
      return;
    }
  }
  for (unsigned i = 0; i < mpi::kNumCorrLabels; ++i) {
    const auto l = static_cast<mpi::CorrLabel>(i);
    if (label == mpi::corr_label_name(l)) {
      c.suite = datasets::Suite::CorrBench;
      c.corr_label = l;
      return;
    }
  }
  throw ContractViolation("unknown label: " + label);
}

}  // namespace

datasets::Dataset skeleton_dataset(const FeatureSet& fs) {
  datasets::Dataset ds;
  ds.name = "features";
  ds.cases.resize(fs.size());
  for (std::size_t i = 0; i < fs.size(); ++i) {
    datasets::Case& c = ds.cases[i];
    c.name = fs.case_names[i];
    c.incorrect = fs.incorrect[i];
    set_case_label(c, fs.label_names[fs.y_label[i]]);
  }
  return ds;
}

}  // namespace mpidetect::core
