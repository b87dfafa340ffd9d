#include "corpus/record.hpp"

#include <sstream>
#include <streambuf>

#include "io/serialize.hpp"
#include "mpi/api.hpp"
#include "mpi/errors.hpp"

namespace mpidetect::corpus {

namespace {

constexpr std::string_view kMagic = "MPCR";
// v1: statement kinds up to Return, functions up to MPI_Accumulate.
// v2: adds ThreadBlock statements and the widened MPI surface
// (nonblocking collectives, Sendrecv/Probe, wait family). The layout is
// unchanged — only the enum ranges grew — so v1 records decode as-is
// under the v1 caps and writers always emit v2.
constexpr std::uint32_t kVersion = 2;

// Corruption guards: a record whose counts exceed these is rejected
// before any allocation, and recursion is depth-bounded so a crafted
// record cannot blow the stack.
constexpr std::size_t kMaxExprKids = 2;
constexpr std::size_t kMaxExprDepth = 128;
constexpr std::size_t kMaxStmtDepth = 64;
constexpr std::size_t kMaxCallArgs = 64;
constexpr std::size_t kMaxBlockStmts = 1u << 16;
constexpr std::size_t kMaxFunctions = 512;
constexpr int kMaxNprocs = 64;

bool valid_bin_op(char op) {
  return op == '+' || op == '-' || op == '*' || op == '/' || op == '%';
}

// ---- encode -----------------------------------------------------------------

void write_expr(io::Writer& w, const progmodel::Expr& e) {
  w.u8(static_cast<std::uint8_t>(e.kind));
  w.i64(e.ival);
  w.f64(e.fval);
  w.str(e.var);
  w.u8(static_cast<std::uint8_t>(e.op));
  w.u8(static_cast<std::uint8_t>(e.pred));
  w.u64(e.kids.size());
  for (const auto& k : e.kids) write_expr(w, k);
}

void write_arg(io::Writer& w, const progmodel::Arg& a) {
  w.u8(static_cast<std::uint8_t>(a.kind));
  write_expr(w, a.value);
  w.str(a.name);
  write_expr(w, a.offset);
  w.u8(a.has_offset ? 1 : 0);
}

void write_stmt(io::Writer& w, const progmodel::Stmt& s) {
  w.u8(static_cast<std::uint8_t>(s.kind));
  w.str(s.name);
  w.u8(static_cast<std::uint8_t>(s.handle));
  w.u8(static_cast<std::uint8_t>(s.elem));
  write_expr(w, s.a);
  write_expr(w, s.b);
  write_expr(w, s.c);
  w.u8(s.has_init ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(s.func));
  w.u64(s.args.size());
  for (const auto& a : s.args) write_arg(w, a);
  w.u64(s.body.size());
  for (const auto& b : s.body) write_stmt(w, b);
  w.u64(s.otherwise.size());
  for (const auto& o : s.otherwise) write_stmt(w, o);
  w.i64(s.iters);
}

// ---- decode -----------------------------------------------------------------

progmodel::Expr read_expr(io::Reader& r, std::size_t depth) {
  if (depth > kMaxExprDepth) r.fail("expression nesting too deep");
  progmodel::Expr e;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(progmodel::Expr::Kind::Cmp)) {
    r.fail("out-of-range expression kind");
  }
  e.kind = static_cast<progmodel::Expr::Kind>(kind);
  e.ival = r.i64();
  e.fval = r.f64();
  e.var = r.str();
  e.op = static_cast<char>(r.u8());
  if (e.kind == progmodel::Expr::Kind::Bin && !valid_bin_op(e.op)) {
    r.fail("invalid binary operator in expression");
  }
  const std::uint8_t pred = r.u8();
  if (pred > static_cast<std::uint8_t>(ir::CmpPred::SGE)) {
    r.fail("out-of-range comparison predicate");
  }
  e.pred = static_cast<ir::CmpPred>(pred);
  const std::size_t kids = r.count(kMaxExprKids);
  e.kids.reserve(kids);
  for (std::size_t i = 0; i < kids; ++i) {
    e.kids.push_back(read_expr(r, depth + 1));
  }
  return e;
}

progmodel::Arg read_arg(io::Reader& r) {
  progmodel::Arg a;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(progmodel::Arg::Kind::NullPtr)) {
    r.fail("out-of-range argument kind");
  }
  a.kind = static_cast<progmodel::Arg::Kind>(kind);
  a.value = read_expr(r, 0);
  a.name = r.str();
  a.offset = read_expr(r, 0);
  const std::uint8_t has_offset = r.u8();
  if (has_offset > 1) r.fail("invalid has_offset flag");
  a.has_offset = has_offset != 0;
  return a;
}

progmodel::Stmt read_stmt(io::Reader& r, std::uint32_t version,
                          std::size_t depth) {
  if (depth > kMaxStmtDepth) r.fail("statement nesting too deep");
  progmodel::Stmt s;
  const std::uint8_t kind = r.u8();
  // The enum caps are pinned per format version: a v1 record carrying a
  // v2-only value is corrupt, not forward-compatible.
  const std::uint8_t max_kind =
      version >= 2 ? static_cast<std::uint8_t>(progmodel::Stmt::Kind::ThreadBlock)
                   : static_cast<std::uint8_t>(progmodel::Stmt::Kind::Return);
  if (kind > max_kind) {
    r.fail("out-of-range statement kind");
  }
  s.kind = static_cast<progmodel::Stmt::Kind>(kind);
  s.name = r.str();
  const std::uint8_t handle = r.u8();
  if (handle > static_cast<std::uint8_t>(progmodel::HandleKind::Win)) {
    r.fail("out-of-range handle kind");
  }
  s.handle = static_cast<progmodel::HandleKind>(handle);
  const std::uint8_t elem = r.u8();
  if (elem > static_cast<std::uint8_t>(ir::Type::Ptr)) {
    r.fail("out-of-range element type");
  }
  s.elem = static_cast<ir::Type>(elem);
  s.a = read_expr(r, 0);
  s.b = read_expr(r, 0);
  s.c = read_expr(r, 0);
  const std::uint8_t has_init = r.u8();
  if (has_init > 1) r.fail("invalid has_init flag");
  s.has_init = has_init != 0;
  const std::uint8_t func = r.u8();
  const std::uint8_t max_func =
      version >= 2 ? static_cast<std::uint8_t>(mpi::kNumFuncs - 1)
                   : static_cast<std::uint8_t>(mpi::Func::Accumulate);
  if (func > max_func) r.fail("out-of-range MPI function");
  s.func = static_cast<mpi::Func>(func);
  const std::size_t nargs = r.count(kMaxCallArgs);
  s.args.reserve(nargs);
  for (std::size_t i = 0; i < nargs; ++i) s.args.push_back(read_arg(r));
  const std::size_t nbody = r.count(kMaxBlockStmts);
  s.body.reserve(nbody);
  for (std::size_t i = 0; i < nbody; ++i) {
    s.body.push_back(read_stmt(r, version, depth + 1));
  }
  const std::size_t nelse = r.count(kMaxBlockStmts);
  s.otherwise.reserve(nelse);
  for (std::size_t i = 0; i < nelse; ++i) {
    s.otherwise.push_back(read_stmt(r, version, depth + 1));
  }
  s.iters = r.i64();
  return s;
}

/// Read-only streambuf over a byte span: lets io::Reader parse straight
/// out of an mmapped shard without copying the record first.
struct MemBuf final : std::streambuf {
  MemBuf(const char* data, std::size_t size) {
    char* p = const_cast<char*>(data);
    setg(p, p, p + size);
  }
};

}  // namespace

void write_case(io::Writer& w, const datasets::Case& c) {
  io::write_section(w, kMagic, kVersion);
  w.str(c.name);
  w.u8(static_cast<std::uint8_t>(c.suite));
  w.u8(static_cast<std::uint8_t>(c.mbi_label));
  w.u8(static_cast<std::uint8_t>(c.corr_label));
  w.u8(c.incorrect ? 1 : 0);
  w.u64(c.source_lines);
  w.str(c.program.name);
  w.u32(static_cast<std::uint32_t>(c.program.nprocs));
  w.u64(c.program.functions.size());
  for (const auto& f : c.program.functions) {
    w.str(f.name);
    w.u64(f.body.size());
    for (const auto& s : f.body) write_stmt(w, s);
  }
  w.u64(c.program.main_body.size());
  for (const auto& s : c.program.main_body) write_stmt(w, s);
}

datasets::Case read_case(io::Reader& r) {
  const std::uint32_t version =
      io::read_section(r, kMagic, 1, kVersion, "corpus case record");
  datasets::Case c;
  c.name = r.str();
  const std::uint8_t suite = r.u8();
  if (suite > static_cast<std::uint8_t>(datasets::Suite::CorrBench)) {
    r.fail("out-of-range suite");
  }
  c.suite = static_cast<datasets::Suite>(suite);
  const std::uint8_t mbi = r.u8();
  if (mbi >= mpi::kNumMbiLabels) r.fail("out-of-range MBI label");
  c.mbi_label = static_cast<mpi::MbiLabel>(mbi);
  const std::uint8_t corr = r.u8();
  if (corr >= mpi::kNumCorrLabels) r.fail("out-of-range CorrBench label");
  c.corr_label = static_cast<mpi::CorrLabel>(corr);
  const std::uint8_t incorrect = r.u8();
  if (incorrect > 1) r.fail("invalid incorrect flag");
  c.incorrect = incorrect != 0;
  // A label claiming "error" while the flag says clean (or vice versa)
  // would silently poison every confusion matrix computed downstream.
  const bool label_incorrect = c.suite == datasets::Suite::Mbi
                                   ? mpi::is_incorrect(c.mbi_label)
                                   : mpi::is_incorrect(c.corr_label);
  if (label_incorrect != c.incorrect) {
    r.fail("label / incorrect-flag mismatch in corpus record");
  }
  c.source_lines = r.u64();
  c.program.name = r.str();
  const std::uint32_t nprocs = r.u32();
  if (nprocs < 1 || nprocs > kMaxNprocs) {
    r.fail("out-of-range nprocs in corpus record");
  }
  c.program.nprocs = static_cast<int>(nprocs);
  const std::size_t nfuncs = r.count(kMaxFunctions);
  c.program.functions.reserve(nfuncs);
  for (std::size_t i = 0; i < nfuncs; ++i) {
    progmodel::UserFunc f;
    f.name = r.str();
    const std::size_t nbody = r.count(kMaxBlockStmts);
    f.body.reserve(nbody);
    for (std::size_t k = 0; k < nbody; ++k) {
      f.body.push_back(read_stmt(r, version, 0));
    }
    c.program.functions.push_back(std::move(f));
  }
  const std::size_t nmain = r.count(kMaxBlockStmts);
  c.program.main_body.reserve(nmain);
  for (std::size_t i = 0; i < nmain; ++i) {
    c.program.main_body.push_back(read_stmt(r, version, 0));
  }
  return c;
}

std::vector<char> encode_case(const datasets::Case& c) {
  std::ostringstream os(std::ios::binary);
  io::Writer w(os);
  write_case(w, c);
  const std::string s = os.str();
  return {s.begin(), s.end()};
}

datasets::Case decode_case(const char* data, std::size_t size,
                           const std::string& origin) {
  MemBuf buf(data, size);
  std::istream is(&buf);
  io::Reader r(is, origin);
  datasets::Case c = read_case(r);
  if (!r.at_end()) r.fail("trailing bytes after corpus case record");
  return c;
}

}  // namespace mpidetect::corpus
