#include "io/fuzz_io.hpp"

#include "datasets/templates.hpp"
#include "io/serialize.hpp"
#include "passes/pipelines.hpp"

namespace mpidetect::io {

namespace {

constexpr std::string_view kMagic = "MPFZ";
// v1: injections up to MissingFinalizeCall. v2: the widened-surface
// injections (same layout, larger enum range); writers always emit v2.
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kMaxRecords = 1u << 20;
constexpr std::int32_t kMaxNprocs = 64;
constexpr std::size_t kMaxDropped = 4096;

}  // namespace

FuzzCorpusWriter::FuzzCorpusWriter(std::filesystem::path path)
    : path_(std::move(path)), tmp_(path_.string() + ".tmp") {
  out_.open(tmp_, std::ios::binary | std::ios::trunc);
  if (!out_) {
    throw FormatError("cannot write fuzz corpus: " + tmp_.string());
  }
  Writer w(out_);
  write_section(w, kMagic, kVersion);
  w.u64(0);  // record-count placeholder, patched by close()
  open_ = true;
}

FuzzCorpusWriter::~FuzzCorpusWriter() {
  if (open_) {
    out_.close();
    std::error_code ec;
    std::filesystem::remove(tmp_, ec);
  }
}

void FuzzCorpusWriter::add(const FuzzRecord& r) {
  Writer w(out_);
  w.str(r.template_id);
  w.u8(r.inject);
  w.u8(r.size_class);
  w.u32(static_cast<std::uint32_t>(r.nprocs));
  w.u8(r.opt_level);
  w.u64(r.program_seed);
  w.u64(r.schedule_seed);
  w.u64(r.dropped.size());
  for (const std::uint32_t d : r.dropped) w.u32(d);
  w.str(r.detector);
  w.u8(r.divergence_kind);
  w.str(r.detail);
  if (!out_) {
    throw FormatError("write failed on fuzz corpus: " + tmp_.string());
  }
  ++count_;
}

void FuzzCorpusWriter::close() {
  if (!open_) return;
  // The count lives right after the 4-byte magic + u32 version.
  out_.seekp(8);
  Writer w(out_);
  w.u64(count_);
  out_.flush();
  out_.close();
  if (out_.fail()) {
    throw FormatError("close failed on fuzz corpus: " + tmp_.string());
  }
  std::error_code ec;
  std::filesystem::rename(tmp_, path_, ec);
  if (ec) {
    throw FormatError("cannot publish fuzz corpus " + path_.string() + ": " +
                      ec.message());
  }
  open_ = false;
}

void save_fuzz_corpus(const std::filesystem::path& path,
                      std::span<const FuzzRecord> records) {
  FuzzCorpusWriter w(path);
  for (const FuzzRecord& r : records) w.add(r);
  w.close();
}

std::vector<FuzzRecord> load_fuzz_corpus(const std::filesystem::path& path) {
  std::vector<FuzzRecord> out;
  load_file(path, [&](Reader& r) {
    const std::uint32_t version = read_section(r, kMagic, 1, kVersion,
                                               "fuzz corpus");
    const std::size_t n = r.count(kMaxRecords);
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      FuzzRecord rec;
      rec.template_id = r.str();
      rec.inject = r.u8();
      rec.size_class = r.u8();
      rec.nprocs = static_cast<std::int32_t>(r.u32());
      rec.opt_level = r.u8();
      rec.program_seed = r.u64();
      rec.schedule_seed = r.u64();
      const std::size_t ndropped = r.count(kMaxDropped);
      rec.dropped.reserve(ndropped);
      for (std::size_t k = 0; k < ndropped; ++k) {
        rec.dropped.push_back(r.u32());
      }
      rec.detector = r.str();
      rec.divergence_kind = r.u8();
      rec.detail = r.str();

      // Semantic validation: a corrupt file must fail loudly here, not
      // crash the consumer that casts these back to enums.
      if (rec.template_id.empty() ||
          datasets::find_template(rec.template_id) == nullptr) {
        r.fail("unknown template id in fuzz corpus: '" + rec.template_id +
               "'");
      }
      const std::uint8_t max_inject =
          version >= 2
              ? static_cast<std::uint8_t>(datasets::kLastInject)
              : static_cast<std::uint8_t>(
                    datasets::Inject::MissingFinalizeCall);
      if (rec.inject > max_inject) {
        r.fail("out-of-range injection in fuzz corpus");
      }
      if (rec.size_class > 2) r.fail("out-of-range size class in fuzz corpus");
      if (rec.nprocs < 0 || rec.nprocs > kMaxNprocs) {
        r.fail("out-of-range nprocs in fuzz corpus");
      }
      if (rec.opt_level > static_cast<std::uint8_t>(passes::OptLevel::Os)) {
        r.fail("out-of-range opt level in fuzz corpus");
      }
      for (std::size_t k = 0; k < rec.dropped.size(); ++k) {
        if (rec.dropped[k] >= kMaxDropped ||
            (k > 0 && rec.dropped[k] <= rec.dropped[k - 1])) {
          r.fail("invalid dropped-statement list in fuzz corpus");
        }
      }
      // 0..2 (FalsePositive / Nondeterminism / ToolError).
      if (rec.divergence_kind > 2) {
        r.fail("out-of-range divergence kind in fuzz corpus");
      }
      out.push_back(std::move(rec));
    }
    if (!r.at_end()) r.fail("trailing bytes after fuzz corpus");
  });
  return out;
}

}  // namespace mpidetect::io
