// Self-contained binary encoding of one labeled benchmark case — the
// record payload of the .mpcs sharded corpus format (corpus/corpus.hpp).
// Unlike the MPFZ repro tuples (which store a generator recipe and rely
// on the templates to rebuild the program), a corpus record carries the
// FULL program AST: a shard is readable without the generator that
// produced it, across generator changes, and by tools that never link
// the template registry. Stored in the shared versioned little-endian
// format of io/serialize.hpp ("MPCR" sections); a round trip reproduces
// the case bit-identically (asserted in tests/corpus_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "datasets/dataset.hpp"

namespace mpidetect::io {
class Writer;
class Reader;
}  // namespace mpidetect::io

namespace mpidetect::corpus {

/// Serializes one case (labels + full program AST) as an "MPCR" section.
void write_case(io::Writer& w, const datasets::Case& c);

/// Reads and validates one case record. Every enum is range-checked,
/// every count capped, and expression/statement nesting depth bounded,
/// so a corrupt record throws io::FormatError instead of crashing the
/// consumer or ballooning memory. The reader must be positioned at the
/// "MPCR" magic; the record's own content ends exactly where the case
/// ends (shard-level framing is the caller's job).
datasets::Case read_case(io::Reader& r);

/// Convenience: encode a case into a standalone byte buffer / decode it
/// back. `origin` names the source in FormatError messages.
std::vector<char> encode_case(const datasets::Case& c);
datasets::Case decode_case(const char* data, std::size_t size,
                           const std::string& origin);

}  // namespace mpidetect::corpus
