#include "corpus/corpus.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "corpus/record.hpp"
#include "io/serialize.hpp"
#include "support/check.hpp"
#include "support/faultpoint.hpp"
#include "support/rng.hpp"

namespace mpidetect::corpus {

namespace {

[[noreturn]] void fail(const std::filesystem::path& path,
                       const std::string& msg) {
  throw io::FormatError(path.string() + ": " + msg);
}

std::uint64_t sectors_for(std::uint64_t bytes) {
  return (bytes + kSectorSize - 1) / kSectorSize;
}

void put_u32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

void put_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

std::string shard_filename(std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%06llu.mpcs",
                static_cast<unsigned long long>(seq));
  return buf;
}

std::string label_from_meta(datasets::Suite suite, std::uint8_t mbi,
                            std::uint8_t corr) {
  if (suite == datasets::Suite::Mbi) {
    return std::string(mpi::mbi_label_name(static_cast<mpi::MbiLabel>(mbi)));
  }
  return std::string(mpi::corr_label_name(static_cast<mpi::CorrLabel>(corr)));
}

}  // namespace

datasets::Dataset load_window(const CaseSource& src,
                              std::span<const std::size_t> idx) {
  datasets::Dataset ds;
  ds.name = src.name() + ":window";
  ds.cases.reserve(idx.size());
  for (const std::size_t i : idx) ds.cases.push_back(src.load(i));
  return ds;
}

// ---------------------------------------------------------------------------
// DatasetSource
// ---------------------------------------------------------------------------

DatasetSource::DatasetSource(const datasets::Dataset& ds) : ds_(&ds) {}

bool DatasetSource::incorrect(std::size_t i) const {
  return ds_->cases.at(i).incorrect;
}

std::string DatasetSource::label_name(std::size_t i) const {
  return ds_->cases.at(i).label_name();
}

std::uint64_t DatasetSource::case_id(std::size_t i) const {
  return fnv1a64(ds_->cases.at(i).name);
}

datasets::Case DatasetSource::load(std::size_t i) const {
  return ds_->cases.at(i);
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct CorpusWriter::IndexEntry {
  std::uint64_t offset = 0;  // from start of file, sector-aligned
  std::uint32_t length = 0;  // unpadded record bytes
  std::uint8_t suite = 0;
  std::uint8_t mbi_label = 0;
  std::uint8_t corr_label = 0;
  std::uint8_t incorrect = 0;
  std::uint64_t name_hash = 0;
  std::uint64_t record_fp = 0;
};

CorpusWriter::CorpusWriter(std::filesystem::path dir, WriterOptions opts)
    : dir_(std::move(dir)), opts_(opts) {
  MPIDETECT_EXPECTS(opts_.max_shard_bytes >= 2 * kSectorSize);
  MPIDETECT_EXPECTS(opts_.max_cases_per_shard >= 1);
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) fail(dir_, "cannot create corpus directory: " + ec.message());
}

CorpusWriter::~CorpusWriter() {
  if (shard_open_) {
    // Unfinished shard: drop the temp file rather than publish a shard
    // whose header was never finalized.
    out_.close();
    std::error_code ec;
    std::filesystem::remove(tmp_path_, ec);
  }
}

void CorpusWriter::open_shard() {
  tmp_path_ = dir_ / (shard_filename(shard_seq_) + ".tmp");
  out_.open(tmp_path_, std::ios::binary | std::ios::trunc);
  if (!out_) fail(tmp_path_, "cannot open shard for writing");
  const std::string zeros(kSectorSize, '\0');
  out_.write(zeros.data(), zeros.size());  // header placeholder
  payload_bytes_ = 0;
  content_fp_ = kFnvOffsetBasis;
  index_.clear();
  shard_open_ = true;
}

void CorpusWriter::add(const datasets::Case& c) {
  MPIDETECT_EXPECTS(!finished_);
  const std::vector<char> rec = encode_case(c);
  const std::uint64_t padded = sectors_for(rec.size()) * kSectorSize;
  if (shard_open_ && !index_.empty() &&
      (index_.size() >= opts_.max_cases_per_shard ||
       kSectorSize + payload_bytes_ + padded + (index_.size() + 1) *
           kIndexEntrySize > opts_.max_shard_bytes)) {
    close_shard();
  }
  if (!shard_open_) open_shard();

  IndexEntry e;
  e.offset = kSectorSize + payload_bytes_;
  e.length = static_cast<std::uint32_t>(rec.size());
  e.suite = static_cast<std::uint8_t>(c.suite);
  e.mbi_label = static_cast<std::uint8_t>(c.mbi_label);
  e.corr_label = static_cast<std::uint8_t>(c.corr_label);
  e.incorrect = c.incorrect ? 1 : 0;
  e.name_hash = fnv1a64(c.name);
  e.record_fp = fnv1a64_bytes(kFnvOffsetBasis, rec.data(), rec.size());
  index_.push_back(e);

  out_.write(rec.data(), static_cast<std::streamsize>(rec.size()));
  content_fp_ = fnv1a64_bytes(content_fp_, rec.data(), rec.size());
  const std::uint64_t pad = padded - rec.size();
  if (pad > 0) {
    static const std::string kZeros(kSectorSize, '\0');
    out_.write(kZeros.data(), static_cast<std::streamsize>(pad));
    content_fp_ = fnv1a64_bytes(content_fp_, kZeros.data(), pad);
  }
  if (!out_ || MPIDETECT_FAULTPOINT("corpus.write.enospc")) {
    fail(tmp_path_, "shard write failed");
  }
  payload_bytes_ += padded;
  ++stats_.cases;
}

void CorpusWriter::close_shard() {
  MPIDETECT_EXPECTS(shard_open_);
  // Index table (fingerprint continues over it: one content fingerprint
  // covers payload + index).
  std::vector<unsigned char> idx(index_.size() * kIndexEntrySize);
  for (std::size_t i = 0; i < index_.size(); ++i) {
    unsigned char* p = idx.data() + i * kIndexEntrySize;
    const IndexEntry& e = index_[i];
    put_u64(p, e.offset);
    put_u32(p + 8, e.length);
    p[12] = e.suite;
    p[13] = e.mbi_label;
    p[14] = e.corr_label;
    p[15] = e.incorrect;
    put_u64(p + 16, e.name_hash);
    put_u64(p + 24, e.record_fp);
  }
  out_.write(reinterpret_cast<const char*>(idx.data()),
             static_cast<std::streamsize>(idx.size()));
  content_fp_ = fnv1a64_bytes(content_fp_, idx.data(), idx.size());

  unsigned char header[kSectorSize] = {};
  std::memcpy(header, kShardMagic.data(), 4);
  put_u32(header + 4, kShardVersion);
  put_u32(header + 8, kSectorSize);
  put_u32(header + 12, 0);  // reserved
  put_u64(header + 16, index_.size());
  put_u64(header + 24, payload_bytes_ / kSectorSize);
  put_u64(header + 32, kSectorSize + payload_bytes_);  // index offset
  put_u64(header + 40, idx.size());
  put_u64(header + 48, content_fp_);
  put_u64(header + 56,
          fnv1a64_bytes(kFnvOffsetBasis, header, kHeaderHashedBytes));
  out_.seekp(0);
  out_.write(reinterpret_cast<const char*>(header), kSectorSize);
  out_.flush();
  if (!out_) fail(tmp_path_, "shard finalize failed");
  out_.close();

  const std::filesystem::path final_path = dir_ / shard_filename(shard_seq_);
  std::error_code ec;
  std::filesystem::rename(tmp_path_, final_path, ec);
  if (ec) fail(final_path, "cannot publish shard: " + ec.message());
  stats_.bytes += kSectorSize + payload_bytes_ + idx.size();
  ++stats_.shards;
  ++shard_seq_;
  shard_open_ = false;
}

WriteStats CorpusWriter::finish() {
  if (!finished_) {
    // An empty corpus is still a valid corpus: publish one empty shard
    // so readers have a header to validate instead of an empty dir.
    if (!shard_open_ && stats_.shards == 0) open_shard();
    if (shard_open_) close_shard();
    finished_ = true;
  }
  return stats_;
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

struct CorpusReader::Shard {
  std::filesystem::path path;
  int fd = -1;
  std::uint64_t file_bytes = 0;
  const unsigned char* map = nullptr;  // lazily established
};

struct CorpusReader::CaseMeta {
  std::uint32_t shard = 0;
  std::uint64_t offset = 0;
  std::uint32_t length = 0;
  std::uint8_t suite = 0;
  std::uint8_t mbi_label = 0;
  std::uint8_t corr_label = 0;
  std::uint8_t incorrect = 0;
  std::uint64_t name_hash = 0;
  std::uint64_t record_fp = 0;
};

namespace {

/// Streams [offset, offset+len) of fd through a fixed 1 MiB buffer into
/// the running FNV state — whole-shard verification without mapping (or
/// otherwise holding resident) more than the buffer.
std::uint64_t hash_region(int fd, const std::filesystem::path& path,
                          std::uint64_t offset, std::uint64_t len,
                          std::uint64_t h) {
  static constexpr std::size_t kBuf = 1u << 20;
  std::vector<unsigned char> buf(std::min<std::uint64_t>(kBuf, len));
  while (len > 0) {
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(buf.size(), len));
    const ssize_t got = ::pread(fd, buf.data(), want,
                                static_cast<off_t>(offset));
    if (got <= 0) fail(path, "read failed while verifying shard");
    h = fnv1a64_bytes(h, buf.data(), static_cast<std::size_t>(got));
    offset += static_cast<std::uint64_t>(got);
    len -= static_cast<std::uint64_t>(got);
  }
  return h;
}

}  // namespace

CorpusReader::CorpusReader(std::filesystem::path dir, bool sequential)
    : dir_(std::move(dir)), sequential_(sequential) {
  name_ = dir_.filename().string();
  if (name_.empty()) name_ = dir_.string();

  std::error_code ec;
  if (!std::filesystem::is_directory(dir_, ec)) {
    fail(dir_, "not a corpus directory");
  }
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.is_regular_file() && entry.path().extension() == ".mpcs") {
      paths.push_back(entry.path());
    }
  }
  if (paths.empty()) fail(dir_, "no .mpcs shards found");
  std::sort(paths.begin(), paths.end());

  for (const auto& path : paths) {
    Shard sh;
    sh.path = path;
    sh.fd = ::open(path.c_str(), O_RDONLY);
    if (sh.fd < 0) fail(path, "cannot open shard");
    shards_.push_back(sh);
    const std::size_t si = shards_.size() - 1;

    struct stat st = {};
    if (::fstat(shards_[si].fd, &st) != 0) fail(path, "cannot stat shard");
    shards_[si].file_bytes = static_cast<std::uint64_t>(st.st_size);
    if (shards_[si].file_bytes < kSectorSize) {
      fail(path, "truncated shard: smaller than the header sector");
    }

    unsigned char header[kSectorSize];
    if (::pread(shards_[si].fd, header, kSectorSize, 0) !=
        static_cast<ssize_t>(kSectorSize)) {
      fail(path, "cannot read shard header");
    }
    if (std::memcmp(header, kShardMagic.data(), 4) != 0) {
      fail(path, "not a .mpcs shard (bad magic)");
    }
    const std::uint32_t version = get_u32(header + 4);
    if (version < 1 || version > kShardVersion) {
      fail(path, "unsupported .mpcs version " + std::to_string(version));
    }
    if (get_u32(header + 8) != kSectorSize) {
      fail(path, "unsupported sector size");
    }
    if (get_u32(header + 12) != 0) fail(path, "nonzero reserved header field");
    const std::uint64_t header_fp =
        fnv1a64_bytes(kFnvOffsetBasis, header, kHeaderHashedBytes);
    if (header_fp != get_u64(header + 56)) {
      fail(path, "header checksum mismatch");
    }
    for (std::size_t b = kHeaderHashedBytes + 8; b < kSectorSize; ++b) {
      if (header[b] != 0) fail(path, "nonzero header padding");
    }

    const std::uint64_t case_count = get_u64(header + 16);
    const std::uint64_t payload_sectors = get_u64(header + 24);
    const std::uint64_t index_offset = get_u64(header + 32);
    const std::uint64_t index_bytes = get_u64(header + 40);
    const std::uint64_t content_fp = get_u64(header + 48);
    const std::uint64_t payload_bytes = payload_sectors * kSectorSize;
    if (index_offset != kSectorSize + payload_bytes) {
      fail(path, "index offset disagrees with payload geometry");
    }
    if (index_bytes != case_count * kIndexEntrySize) {
      fail(path, "index size disagrees with case count");
    }
    if (shards_[si].file_bytes < index_offset + index_bytes) {
      fail(path, "truncated shard: file ends before the index does");
    }
    if (shards_[si].file_bytes > index_offset + index_bytes) {
      fail(path, "trailing bytes after shard index");
    }

    // One streamed pass over payload + index: the content fingerprint
    // covers every byte past the header, so any flipped byte anywhere in
    // the shard is caught here, at open.
    std::uint64_t fp = hash_region(shards_[si].fd, path, kSectorSize,
                                   payload_bytes + index_bytes,
                                   kFnvOffsetBasis);
    if (fp != content_fp) fail(path, "shard content fingerprint mismatch");

    std::vector<unsigned char> idx(index_bytes);
    if (index_bytes > 0 &&
        ::pread(shards_[si].fd, idx.data(), idx.size(),
                static_cast<off_t>(index_offset)) !=
            static_cast<ssize_t>(idx.size())) {
      fail(path, "cannot read shard index");
    }
    shard_first_.push_back(meta_.size());
    std::uint64_t expect_offset = kSectorSize;
    for (std::uint64_t i = 0; i < case_count; ++i) {
      const unsigned char* p = idx.data() + i * kIndexEntrySize;
      CaseMeta m;
      m.shard = static_cast<std::uint32_t>(si);
      m.offset = get_u64(p);
      m.length = get_u32(p + 8);
      m.suite = p[12];
      m.mbi_label = p[13];
      m.corr_label = p[14];
      m.incorrect = p[15];
      m.name_hash = get_u64(p + 16);
      m.record_fp = get_u64(p + 24);
      if (m.offset != expect_offset) {
        fail(path, "index entry offset out of sequence");
      }
      if (m.length == 0) fail(path, "zero-length index entry");
      expect_offset += sectors_for(m.length) * kSectorSize;
      if (expect_offset > index_offset) {
        fail(path, "index entry overruns the payload region");
      }
      if (m.suite > static_cast<std::uint8_t>(datasets::Suite::CorrBench) ||
          m.mbi_label >= mpi::kNumMbiLabels ||
          m.corr_label >= mpi::kNumCorrLabels || m.incorrect > 1) {
        fail(path, "out-of-range label metadata in index");
      }
      meta_.push_back(m);
    }
    if (expect_offset != index_offset) {
      fail(path, "payload region extends past the last index entry");
    }

    ShardInfo info;
    info.path = path;
    info.case_count = case_count;
    info.file_bytes = shards_[si].file_bytes;
    info.fingerprint = content_fp;
    infos_.push_back(info);
  }
}

CorpusReader::~CorpusReader() {
  release_mappings();
  for (Shard& sh : shards_) {
    if (sh.fd >= 0) ::close(sh.fd);
  }
}

void CorpusReader::release_mappings() const {
  for (Shard& sh : shards_) {
    if (sh.map != nullptr) {
      ::munmap(const_cast<unsigned char*>(sh.map), sh.file_bytes);
      sh.map = nullptr;
    }
  }
}

void CorpusReader::ensure_mapped(std::size_t shard) const {
  Shard& sh = shards_[shard];
  if (sh.map != nullptr) return;
  if (sequential_) {
    // Bounded-memory mode: at most one shard mapped at a time.
    release_mappings();
  }
  void* p = ::mmap(nullptr, sh.file_bytes, PROT_READ, MAP_PRIVATE, sh.fd, 0);
  if (p == MAP_FAILED) fail(sh.path, "mmap failed");
  sh.map = static_cast<const unsigned char*>(p);
}

std::size_t CorpusReader::size() const { return meta_.size(); }

std::size_t CorpusReader::shard_count() const { return shards_.size(); }

bool CorpusReader::incorrect(std::size_t i) const {
  return meta_.at(i).incorrect != 0;
}

std::string CorpusReader::label_name(std::size_t i) const {
  const CaseMeta& m = meta_.at(i);
  return label_from_meta(static_cast<datasets::Suite>(m.suite), m.mbi_label,
                         m.corr_label);
}

std::uint64_t CorpusReader::case_id(std::size_t i) const {
  return meta_.at(i).name_hash;
}

datasets::Case CorpusReader::load_meta(const CaseMeta& m) const {
  ensure_mapped(m.shard);
  const Shard& sh = shards_[m.shard];
  const unsigned char* rec = sh.map + m.offset;
  if (fnv1a64_bytes(kFnvOffsetBasis, rec, m.length) != m.record_fp) {
    fail(sh.path, "record checksum mismatch (file changed after open?)");
  }
  datasets::Case c = decode_case(reinterpret_cast<const char*>(rec), m.length,
                                 sh.path.string());
  if (fnv1a64(c.name) != m.name_hash ||
      static_cast<std::uint8_t>(c.suite) != m.suite ||
      static_cast<std::uint8_t>(c.mbi_label) != m.mbi_label ||
      static_cast<std::uint8_t>(c.corr_label) != m.corr_label ||
      (c.incorrect ? 1 : 0) != m.incorrect) {
    fail(sh.path, "index metadata disagrees with decoded record");
  }
  return c;
}

datasets::Case CorpusReader::load(std::size_t i) const {
  return load_meta(meta_.at(i));
}

std::size_t CorpusReader::global_index(std::size_t shard,
                                       std::size_t ordinal) const {
  MPIDETECT_EXPECTS(shard < shards_.size());
  const std::size_t idx = shard_first_[shard] + ordinal;
  MPIDETECT_EXPECTS(idx < meta_.size() &&
                    (shard + 1 == shards_.size() ||
                     idx < shard_first_[shard + 1]));
  return idx;
}

datasets::Case CorpusReader::at(std::size_t shard, std::size_t ordinal) const {
  return load(global_index(shard, ordinal));
}

void CorpusReader::for_each(
    const std::function<void(std::size_t, const datasets::Case&)>& fn) const {
  std::uint32_t current = 0;
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    if (meta_[i].shard != current) {
      // Crossed a shard boundary: drop the finished shard's pages.
      release_mappings();
      current = meta_[i].shard;
    }
    const datasets::Case c = load_meta(meta_[i]);
    fn(i, c);
  }
  release_mappings();
}

}  // namespace mpidetect::corpus
