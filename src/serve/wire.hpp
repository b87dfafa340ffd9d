// The mpiguardd wire protocol: length-prefixed, versioned, explicit
// little-endian frames built on the same Writer/Reader substrate —
// and the same magic + version + FormatError discipline — as the
// .mpib model bundles and the encoding spill files (io/serialize.hpp).
//
// On the wire a frame is
//
//   u32 payload_length │ payload
//
// where the payload is a self-describing section:
//
//   "MGWP" magic │ u32 version │ u8 frame type │ type-specific body
//
// The length prefix is raw (outside the payload) so a receiver can take
// a whole frame off the byte stream before parsing a single field; a
// length above kMaxFrameBytes (or below the 9-byte section header) is
// rejected before any allocation, so a corrupt prefix can never turn
// into a multi-gigabyte buffer. Decoding validates everything else:
// magic, version == kWireVersion, known frame type, in-range enum
// values, and an exactly-consumed payload (trailing bytes are
// corruption, exactly like the .mpib loader). Every violation throws
// io::FormatError; the daemon answers with an ERROR frame and drops the
// connection — a byte stream that has lost framing cannot be resynced.
//
// A SUBMIT carries a case *reference* — dataset spec + index — not the
// program bytes: corpora are pure functions of their specs
// (datasets/spec.hpp), which makes the frame a few dozen bytes and lets
// the daemon keep one warm, shared encoding of each corpus instead of
// re-embedding per request (the same seeds-not-bodies idea as the MPFZ
// repro corpora). Byte-level layout tables: docs/SERVING.md.
//
// Versioning: the section header's version field is checked, not
// negotiated. Both sides speak exactly kWireVersion; a frame carrying
// any other version is rejected like any other corruption. Every client
// of the daemon lives in this tree, so a format change bumps the
// version on both ends at once.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "io/serialize.hpp"

namespace mpidetect::serve {

class Transport;

inline constexpr std::uint32_t kWireVersion = 3;
/// Hard ceiling on one frame's payload (magic + version + type + body).
inline constexpr std::size_t kMaxFrameBytes = 1u << 20;

enum class FrameType : std::uint8_t {
  Hello = 1,     // client → server: protocol handshake
  Caps = 2,      // server → client: capabilities + loaded detectors
  Submit = 3,    // client → server: one detection request
  Verdict = 4,   // server → client: the verdict for one request
  Busy = 5,      // server → client: admission queue full, resubmit later
  Error = 6,     // server → client: malformed/unserviceable request
  StatsReq = 7,  // client → server: ask for counters
  Stats = 8,     // server → client: the counters
  Shutdown = 9,  // client → server: drain in-flight work and stop
  Bye = 10,      // server → client: drain complete, daemon stopping
  Expired = 11,  // server → client: deadline passed, work shed
};

std::string_view frame_type_name(FrameType t);

struct Hello {
  std::string client;  // free-form client identification; the daemon
                       // ignores it
};

struct Caps {
  std::string server;
  std::uint32_t queue_capacity = 0;  // admission slots (backpressure bound)
  std::uint32_t max_batch = 0;       // coalescing window (requests/batch)
  std::vector<std::string> detectors;  // loadable SUBMIT targets, in order
};

struct Submit {
  std::uint64_t request_id = 0;  // echoed in the VERDICT/BUSY/ERROR reply
  std::string detector;          // registry key of a loaded bundle;
                                 // empty = the daemon's first model
  std::string dataset;           // spec, e.g. "mbi:0.05@7" (datasets/spec.hpp)
  std::uint64_t index = 0;       // case index within the generated corpus
  /// Answer within this many ms of admission or shed the work with an
  /// EXPIRED frame instead of running it. 0 = no deadline.
  std::uint32_t deadline_ms = 0;
};

struct WireVerdict {
  std::uint64_t request_id = 0;
  std::uint8_t outcome = 0;  // core::Verdict::Outcome, range-checked
  std::optional<std::uint64_t> predicted_label;
  std::optional<double> confidence;
  /// How many requests were coalesced into the batch that produced this
  /// verdict — the admission window made observable (tests and
  /// bench/serve_throughput assert coalescing actually happened).
  std::uint32_t batch_size = 1;
};

struct Busy {
  std::uint64_t request_id = 0;
};

struct Error {
  std::uint64_t request_id = 0;  // 0 = connection-level (no request)
  std::string message;
};

struct StatsReq {};

/// One per-op kernel profiling row of STATS: the daemon-lifetime
/// totals of ml::kernels::op_counters() for one op class.
struct OpCounter {
  std::string name;           // ml::kernels::op_name
  std::uint64_t calls = 0;
  std::uint64_t flops = 0;
  std::uint64_t ns = 0;
};

struct Stats {
  std::uint64_t received = 0;         // SUBMIT frames parsed
  std::uint64_t served = 0;           // VERDICT frames sent
  std::uint64_t busy_rejected = 0;    // BUSY replies (queue full)
  std::uint64_t request_errors = 0;   // ERROR replies to well-formed SUBMITs
  std::uint64_t protocol_errors = 0;  // malformed frames / lost framing
  std::uint64_t batches = 0;          // detector batch dispatches
  std::uint64_t max_coalesced = 0;    // largest batch actually formed
  std::uint64_t max_queue_depth = 0;  // high-water admission occupancy
  std::uint64_t datasets_materialized = 0;  // distinct specs generated
  std::uint64_t cache_disk_hits = 0;        // shared EncodingCache spill
  std::uint64_t cache_disk_writes = 0;
  // ---- robustness counters ----
  std::uint64_t deadline_sheds = 0;   // EXPIRED replies (shed before run)
  std::uint64_t io_timeouts = 0;      // read/write deadlines that fired
  std::uint64_t reaped_connections = 0;  // connections closed by deadline
  std::uint64_t retries = 0;          // resubmits of a BUSY-bounced id
  std::uint64_t watchdog_trips = 0;   // batches outliving the watchdog
  std::uint64_t faults_fired = 0;     // injected faults (faultpoint.hpp)
  // ---- kernel profiling: where the daemon's inference time goes ----
  std::vector<OpCounter> op_counters;
};

struct Shutdown {};

struct Bye {};

struct Expired {
  std::uint64_t request_id = 0;
};

using Frame = std::variant<Hello, Caps, Submit, WireVerdict, Busy, Error,
                           StatsReq, Stats, Shutdown, Bye, Expired>;

FrameType frame_type(const Frame& f);

/// Serializes a frame to its full wire form: u32 length prefix followed
/// by the payload.
std::string encode_frame(const Frame& f);

/// Parses one payload (the bytes AFTER the length prefix). Throws
/// io::FormatError — naming `origin` — on bad magic, a version other
/// than kWireVersion, unknown type, out-of-range values, truncation or
/// trailing bytes.
Frame decode_payload(std::string_view payload, const std::string& origin);

/// Writes one frame to the transport (one write_all call: frames from
/// concurrent writers holding the connection's write lock never
/// interleave).
void write_frame(Transport& t, const Frame& f);

/// Per-frame read deadlines (0 = wait forever): `idle_ms` bounds the
/// wait for the first byte of the next frame (the idle-connection
/// reaper), `io_ms` bounds each subsequent read once a frame has
/// started (a slow-loris trickling half a frame hits this one).
struct ReadTimeouts {
  int idle_ms = 0;
  int io_ms = 0;
};

/// Reads one frame off the transport. Returns nullopt on clean EOF at a
/// frame boundary; throws io::FormatError on an implausible length
/// prefix or a malformed payload, TransportError when the peer dies
/// mid-frame, TransportTimeout when a ReadTimeouts deadline fires.
std::optional<Frame> read_frame(Transport& t, const std::string& origin,
                                const ReadTimeouts& timeouts = {});

}  // namespace mpidetect::serve
