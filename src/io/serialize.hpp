// Versioned binary (de)serialization substrate for every artifact the
// project persists: trained detector bundles (io/model_io.hpp,
// DetectorRegistry::save_bundle) and on-disk encoding spill files
// (io/encoding_io.hpp, EncodingCache::set_spill_dir).
//
// The format is explicit little-endian regardless of host byte order,
// with doubles stored as their IEEE-754 bit pattern, so artifacts are
// bit-exact across machines and a save/load round trip reproduces model
// verdicts exactly. Every top-level object starts with a 4-byte magic
// plus a format version (write_section / read_section); readers reject
// unknown magics, versions outside their range and truncated streams
// with a FormatError naming the file.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mpidetect::io {

/// Thrown when a stream is not a valid artifact: wrong magic, a version
/// newer than this build understands, truncation, or values that fail
/// validation (e.g. out-of-range node indices). The message names the
/// originating file when one is known.
class FormatError final : public std::runtime_error {
 public:
  explicit FormatError(const std::string& what) : std::runtime_error(what) {}
};

/// Little-endian binary writer over a std::ostream.
class Writer {
 public:
  explicit Writer(std::ostream& os) : os_(os) {}

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  /// IEEE-754 bit pattern; exact round trip.
  void f64(double v);
  /// u64 length followed by the raw bytes.
  void str(std::string_view s);
  void raw(const void* data, std::size_t len);

  /// u64 count followed by the elements.
  void f64_vec(std::span<const double> v);
  void index_vec(std::span<const std::size_t> v);

 private:
  std::ostream& os_;
};

/// Little-endian binary reader over a std::istream; every read throws
/// FormatError on truncation. `origin` (usually the file path) is
/// prepended to error messages.
class Reader {
 public:
  explicit Reader(std::istream& is, std::string origin = "<stream>");

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  std::string str(std::size_t max_len = kMaxString);
  /// u64 read and checked against `max` (corruption guard: a garbage
  /// count must not turn into a multi-gigabyte allocation).
  std::size_t count(std::size_t max);

  std::vector<double> f64_vec(std::size_t max = kMaxElements);
  std::vector<std::size_t> index_vec(std::size_t max = kMaxElements);

  /// True when the underlying stream is exhausted (clean end of file).
  bool at_end();

  const std::string& origin() const { return origin_; }
  [[noreturn]] void fail(const std::string& msg) const;

  static constexpr std::size_t kMaxString = 1u << 20;
  static constexpr std::size_t kMaxElements = 1u << 28;

 private:
  void raw(void* data, std::size_t len);

  std::istream& is_;
  std::string origin_;
};

/// Starts a versioned object: 4-byte magic + u32 version.
void write_section(Writer& w, std::string_view magic4, std::uint32_t version);

/// Validates the magic and returns the version, which must be in
/// [min_supported, max_supported] (min_supported >= 1); otherwise throws
/// FormatError: "not a …" for a wrong magic, "corrupt …" for version 0,
/// which no build writes, and "unsupported … version N" naming the
/// accepted range and whether an older or a newer build wrote it. `what`
/// names the artifact in messages.
std::uint32_t read_section(Reader& r, std::string_view magic4,
                           std::uint32_t min_supported,
                           std::uint32_t max_supported, std::string_view what);

/// Writes a file atomically: the payload goes to `path` + ".tmp" and is
/// renamed over `path` only after `body` completes and the stream
/// flushes cleanly. Throws FormatError when the file cannot be written.
void save_file(const std::filesystem::path& path,
               const std::function<void(Writer&)>& body);

/// Opens `path` and hands a Reader (with origin = path) to `body`.
/// Throws FormatError when the file cannot be opened.
void load_file(const std::filesystem::path& path,
               const std::function<void(Reader&)>& body);

}  // namespace mpidetect::io
