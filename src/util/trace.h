// Tracing: the distributed span layer, the process's one event path. A
// request that fans out across shards and nodes is stitched
// together by a TraceContext — (trace_id, parent_span_id, sampled) — carried
// in the protocol header. Each hop records a Span (bounded per-stage timeline
// namespaced by node/shard/request id) into the process-wide SpanStore, whose
// retention rings double as the tail-sampling buffer: every traced request is
// recorded, and spans slower than the moving p99 of root latency (or matching
// the 1-in-N head sample) are marked retained. TRACE protocol ops pull a
// node's recent spans so `swift_cli trace` can merge one causal timeline.

#ifndef SWIFT_SRC_UTIL_TRACE_H_
#define SWIFT_SRC_UTIL_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace swift {

// Steady nanoseconds since the process trace epoch: the clock behind every
// span timestamp and wire timestamp this process records.
uint64_t TraceNowNs();

// --- trace identity -------------------------------------------------------

// Process-wide trace node id, stamped into every span this process records.
// Daemons set it to their well-known port at startup; the default 0 denotes
// "client process".
void SetTraceNodeId(uint32_t node);
uint32_t TraceNodeId();

// --- trace context --------------------------------------------------------

// Sampling flag carried in TraceContext::flags.
inline constexpr uint32_t kTraceFlagSampled = 1u << 0;

// The 16 bytes of causal identity a message carries across the wire.
// trace_id == 0 means "no trace" — untraced messages are encoded without the
// header extension and are byte-identical to the pre-trace wire format.
struct TraceContext {
  uint64_t trace_id = 0;
  uint32_t parent_span_id = 0;
  uint32_t flags = 0;

  bool present() const { return trace_id != 0; }
  bool sampled() const { return (flags & kTraceFlagSampled) != 0; }
};

// Ambient context for the calling thread. Ops capture it at submission so a
// fan-out (worker pools, reactor threads) inherits the submitting request's
// identity.
TraceContext CurrentTraceContext();
void SetCurrentTraceContext(const TraceContext& context);

// RAII: installs `context` for the current scope, restoring the previous
// ambient context on exit.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& context)
      : saved_(CurrentTraceContext()) {
    SetCurrentTraceContext(context);
  }
  ~ScopedTraceContext() { SetCurrentTraceContext(saved_); }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

// --- sampling policy ------------------------------------------------------

enum class TraceMode : uint8_t {
  kOff = 0,      // no contexts created, no spans recorded (bench baseline)
  kSampled = 1,  // default: every root measured (root histogram feeds the
                 // moving-p99 tail threshold; slow roots are tail-promoted
                 // into the ring, alone), but only 1-in-N head-sampled
                 // traces materialize per-op spans and ride the wire
  kAll = 2,      // every root sampled: full per-op detail, 100% retention
};

void SetTraceMode(TraceMode mode);
TraceMode GetTraceMode();

// Head-sampling period under TraceMode::kSampled.
inline constexpr uint32_t kTraceHeadSampleEvery = 16;

// Fresh identifiers. NewTraceId is unique per process run (process-random
// base + counter); NextSpanId is process-unique. Neither returns 0.
uint64_t NewTraceId();
uint32_t NextSpanId();

// New root context per the current mode: kOff → empty (not present);
// kSampled → fresh trace, head-sampled 1-in-N; kAll → fresh trace, sampled.
TraceContext NewRootContext();

// --- span model -----------------------------------------------------------

// The per-hop stage taxonomy (DESIGN.md §14). Stage durations are what the
// timeline attributes client-observed latency to.
enum class SpanStage : uint8_t {
  kClientQueue = 1,  // submit → reactor pickup (client op queue)
  kSendFlush = 2,    // reactor pickup → send batch flushed to the kernel
  kWire = 3,         // flush → completion (network + remote, from the client)
  kRecvBatch = 4,    // datagram kernel receive → server processing start
  kService = 5,      // server-side request handling (excl. store)
  kStore = 6,        // backing-store read/write
  kParity = 7,       // client-side parity compute/fold
  kReply = 8,        // server handling done → replies flushed
  kRetransmit = 9,   // one retransmitted datagram (arg = timeout round)
  kCcGate = 10,      // congestion gate: send pacing / window admission delay
                     // (arg = paced bytes)
};

const char* SpanStageName(SpanStage stage);

struct SpanEvent {
  SpanStage stage = SpanStage::kService;
  uint64_t at_ns = 0;   // stage start, recording node's trace epoch
  uint64_t dur_ns = 0;
  uint32_t arg = 0;     // stage-specific: retry round, byte count, ...
};

struct Span {
  uint64_t trace_id = 0;
  uint32_t span_id = 0;
  uint32_t parent_span_id = 0;  // 0 = root
  uint32_t node = 0;            // recording process (0 = client)
  uint32_t shard = 0;
  uint32_t request_id = 0;      // transport/request id on that node, 0 = n/a
  uint8_t op = 0;               // MessageType of the request, 0 for roots
  uint32_t status = 0;          // StatusCode at completion (0 = OK)
  bool sampled = false;         // head-sampled, mode=all, or tail-promoted
  uint64_t start_ns = 0;        // recording node's trace epoch
  uint64_t end_ns = 0;
  std::string label;            // human tag for roots ("pread", "put", ...)
  std::vector<SpanEvent> events;

  uint64_t duration_ns() const { return end_ns >= start_ns ? end_ns - start_ns : 0; }
};

// Process-wide span retention: sharded bounded rings (the rings ARE the
// tail-sampling buffer — every traced request is recorded; "sampling" marks
// which spans a collector should prefer to keep). Submit also feeds the
// per-stage duration histograms (swift_trace_stage_<stage>_us) and, for
// roots, the moving-p99 tail threshold.
class SpanStore {
 public:
  static constexpr size_t kShards = 8;
  static constexpr size_t kRingCapacity = 512;  // spans per shard

  static SpanStore& Global();

  // Records the span (no-op when GetTraceMode() == kOff). Thread-safe.
  void Submit(Span span);

  // Recent spans, every shard, submission order not guaranteed. With a
  // nonzero `trace_filter` only spans of that trace are returned.
  std::vector<Span> Snapshot(uint64_t trace_filter = 0) const;

  // Drops every retained span and resets the tail threshold (tests/bench).
  void Reset();

  // Current tail-promotion threshold (ns); 0 until enough roots were seen.
  uint64_t TailThresholdNs() const;

 private:
  SpanStore() = default;

  struct Shard {
    mutable std::mutex mutex;
    std::vector<Span> ring;  // grows to kRingCapacity, then overwrites
    size_t next = 0;
  };

  Shard shards_[kShards];
  std::atomic<size_t> submit_counter_{0};
  std::atomic<uint64_t> tail_threshold_ns_{0};
};

// Wire codec for TRACE_REPLY payloads (and `swift_cli --trace-out` files):
// a self-contained big-endian stream of spans. ParseSpans expects the whole
// stream (reassemble packetized replies first).
std::vector<uint8_t> SerializeSpans(const std::vector<Span>& spans);
Result<std::vector<Span>> ParseSpans(std::span<const uint8_t> bytes);

}  // namespace swift

#endif  // SWIFT_SRC_UTIL_TRACE_H_
