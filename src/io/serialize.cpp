#include "io/serialize.hpp"

#include "support/check.hpp"
#include "support/faultpoint.hpp"

#include <bit>
#include <fstream>
#include <istream>
#include <ostream>

namespace mpidetect::io {

namespace {

void put_le(std::ostream& os, std::uint64_t v, int bytes) {
  char buf[8];
  for (int i = 0; i < bytes; ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  os.write(buf, bytes);
}

}  // namespace

void Writer::u8(std::uint8_t v) { put_le(os_, v, 1); }
void Writer::u32(std::uint32_t v) { put_le(os_, v, 4); }
void Writer::u64(std::uint64_t v) { put_le(os_, v, 8); }
void Writer::i64(std::int64_t v) {
  put_le(os_, static_cast<std::uint64_t>(v), 8);
}
void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::str(std::string_view s) {
  u64(s.size());
  os_.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void Writer::raw(const void* data, std::size_t len) {
  os_.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(len));
}

void Writer::f64_vec(std::span<const double> v) {
  u64(v.size());
  for (const double x : v) f64(x);
}

void Writer::index_vec(std::span<const std::size_t> v) {
  u64(v.size());
  for (const std::size_t x : v) u64(x);
}

Reader::Reader(std::istream& is, std::string origin)
    : is_(is), origin_(std::move(origin)) {}

void Reader::fail(const std::string& msg) const {
  throw FormatError(origin_ + ": " + msg);
}

void Reader::raw(void* data, std::size_t len) {
  is_.read(static_cast<char*>(data), static_cast<std::streamsize>(len));
  if (static_cast<std::size_t>(is_.gcount()) != len) {
    fail("unexpected end of file (truncated or corrupt)");
  }
}

std::uint8_t Reader::u8() {
  unsigned char b;
  raw(&b, 1);
  return b;
}

std::uint32_t Reader::u32() {
  unsigned char b[4];
  raw(b, 4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  return v;
}

std::uint64_t Reader::u64() {
  unsigned char b[8];
  raw(b, 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

std::int64_t Reader::i64() { return static_cast<std::int64_t>(u64()); }

double Reader::f64() { return std::bit_cast<double>(u64()); }

std::string Reader::str(std::size_t max_len) {
  const std::size_t len = count(max_len);
  std::string s(len, '\0');
  if (len > 0) raw(s.data(), len);
  return s;
}

std::size_t Reader::count(std::size_t max) {
  const std::uint64_t v = u64();
  if (v > max) {
    fail("implausible count " + std::to_string(v) +
         " (limit " + std::to_string(max) + "; corrupt file?)");
  }
  return static_cast<std::size_t>(v);
}

std::vector<double> Reader::f64_vec(std::size_t max) {
  const std::size_t n = count(max);
  std::vector<double> v(n);
  for (double& x : v) x = f64();
  return v;
}

std::vector<std::size_t> Reader::index_vec(std::size_t max) {
  const std::size_t n = count(max);
  std::vector<std::size_t> v(n);
  for (std::size_t& x : v) x = static_cast<std::size_t>(u64());
  return v;
}

bool Reader::at_end() { return is_.peek() == std::istream::traits_type::eof(); }

void write_section(Writer& w, std::string_view magic4, std::uint32_t version) {
  if (magic4.size() != 4) {
    throw FormatError("write_section: magic must be 4 bytes, got '" +
                      std::string(magic4) + "'");
  }
  w.raw(magic4.data(), 4);
  w.u32(version);
}

std::uint32_t read_section(Reader& r, std::string_view magic4,
                           std::uint32_t min_supported,
                           std::uint32_t max_supported, std::string_view what) {
  MPIDETECT_EXPECTS(min_supported >= 1 && min_supported <= max_supported);
  char got[5] = {};
  for (int i = 0; i < 4; ++i) got[i] = static_cast<char>(r.u8());
  if (std::string_view(got, 4) != magic4) {
    std::string printable;
    for (int i = 0; i < 4; ++i) {
      const char c = got[i];
      printable += (c >= 0x20 && c < 0x7f) ? c : '?';
    }
    r.fail("not a " + std::string(what) + " (expected magic '" +
           std::string(magic4) + "', found '" + printable + "')");
  }
  const std::uint32_t version = r.u32();
  if (version == 0) {
    r.fail("corrupt " + std::string(what) +
           ": version 0, which no build writes");
  }
  if (version < min_supported || version > max_supported) {
    const std::string range =
        min_supported == max_supported
            ? "only version " + std::to_string(max_supported)
            : std::to_string(min_supported) + ".." +
                  std::to_string(max_supported);
    r.fail("unsupported " + std::string(what) + " version " +
           std::to_string(version) + " (this build supports " + range +
           "; it was written by " +
           (version < min_supported ? "an older" : "a newer") + " build)");
  }
  return version;
}

void save_file(const std::filesystem::path& path,
               const std::function<void(Writer&)>& body) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  try {
    {
      std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
      if (!os) {
        throw FormatError(tmp.string() + ": cannot open for writing");
      }
      Writer w(os);
      body(w);
      os.flush();
      if (!os) {
        throw FormatError(tmp.string() + ": write failed (disk full?)");
      }
    }
    if (MPIDETECT_FAULTPOINT("io.save.enospc")) {
      throw FormatError(tmp.string() +
                        ": write failed (injected ENOSPC, io.save.enospc)");
    }
    if (MPIDETECT_FAULTPOINT("io.save.torn")) {
      // A torn write: half the bytes land, then the rename happens
      // anyway — the crash-mid-write case atomic replacement is
      // supposed to make impossible without the tmp file. Loaders must
      // treat the result as corrupt, never as data.
      std::error_code tec;
      const auto size = std::filesystem::file_size(tmp, tec);
      if (!tec) std::filesystem::resize_file(tmp, size / 2, tec);
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
      throw FormatError(path.string() + ": cannot replace file (" +
                        ec.message() + ")");
    }
  } catch (...) {
    // Never leave a partial .tmp behind, whatever failed — including a
    // body() that threw (e.g. an unfitted detector refusing to save).
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw;
  }
}

void load_file(const std::filesystem::path& path,
               const std::function<void(Reader&)>& body) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw FormatError(path.string() + ": cannot open (missing file?)");
  }
  Reader r(is, path.string());
  body(r);
}

}  // namespace mpidetect::io
