/**
 * @file
 * The wmrace serving protocol: length-prefixed binary frames over a
 * stream socket (unix domain by default, loopback TCP optionally).
 *
 * One connection carries ONE request and ONE response — the serving
 * unit is a whole trace analysis (file-sized, not packet-sized), so
 * connection reuse would buy little and cost framing state.  All
 * outer-frame integers are little-endian fixed width; the response
 * meta block uses the shared varint codec (trace/wire_codec.hh).
 *
 *   request  := "WMRQSV01" cmd:u32le flags:u32le bodyLen:u64le body
 *   response := "WMRPSV01" status:u32le flags:u32le
 *               retryAfterMs:u32le metaLen:u64le reportLen:u64le
 *               meta report
 *
 * Commands: Analyze (body = a trace file's bytes, either container),
 * Status (body empty; the report field of the response carries the
 * server status JSON), Shutdown (body empty; asks the server to
 * drain gracefully — the network twin of SIGTERM).
 *
 * The response meta is the machine-readable per-trace summary (the
 * same fields as a batch TraceRunResult), so `wmrace batch --server`
 * can aggregate served analyses without scraping the report text;
 * the report field is byte-identical to local `wmrace check` output,
 * which is what the golden-corpus replay (tools/loadgen.sh) diffs.
 *
 * Admission control is visible on the wire: a saturated server
 * answers Overloaded with a client retry hint instead of queueing
 * unboundedly (see docs/SERVE.md).
 */

#ifndef WMR_SERVE_PROTOCOL_HH
#define WMR_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "pipeline/analysis_request.hh"

namespace wmr::serve {

/** What a request asks the server to do. */
enum class Command : std::uint32_t {
    Analyze = 1,  ///< body = trace bytes; response = report
    Status = 2,   ///< response report = server status JSON
    Shutdown = 3, ///< graceful drain (the network SIGTERM)
};

/** Request flag bits. */
constexpr std::uint32_t kReqSalvage = 1u << 0; ///< damaged upload ok
constexpr std::uint32_t kReqNoCache = 1u << 1; ///< bypass the cache

/**
 * Engine selector (request flag bits 8..11): which detector engine
 * family analyzes the upload (docs/DETECTORS.md).  0 keeps the
 * canonical hb1 `wmrace check` path; 1..4 select hb1 / shb / wcp /
 * all and make the response report a detector family report.
 * readRequest() validates the field, so an out-of-range selector is
 * a Malformed frame with a typed error — never an undefined engine.
 */
constexpr std::uint32_t kReqEngineShift = 8;
constexpr std::uint32_t kReqEngineMask = 0xFu << kReqEngineShift;
constexpr std::uint32_t kWireEngineDefault = 0;
constexpr std::uint32_t kWireEngineMax = 4; ///< largest valid id

/** @return the engine selector field of request @p flags. */
constexpr std::uint32_t
requestEngineWire(std::uint32_t flags)
{
    return (flags & kReqEngineMask) >> kReqEngineShift;
}

/** @return the `--engine` name of wire id @p wire (1..4), or
 *  nullptr for 0/default and out-of-range ids. */
const char *engineWireName(std::uint32_t wire);

/** @return the wire id of `--engine` name @p name ("hb1", "shb",
 *  "wcp", "all"), or 0 when unknown (callers reject that). */
std::uint32_t engineWireId(const std::string &name);

/** How the server answered. */
enum class RespStatus : std::uint32_t {
    Ok = 0,
    BadRequest = 1,    ///< malformed frame or unparseable trace
    Overloaded = 2,    ///< admission control rejected; retry later
    Draining = 3,      ///< shutting down; resubmit elsewhere/later
    InternalError = 4, ///< server-side failure
};

/** @return a stable lowercase name for @p status. */
const char *respStatusName(RespStatus status);

/** Response flag bits. */
constexpr std::uint32_t kRespCacheHit = 1u << 0;
constexpr std::uint32_t kRespAnyDataRace = 1u << 1;
constexpr std::uint32_t kRespSalvaged = 1u << 2;

/** One parsed request. */
struct Request
{
    Command command = Command::Analyze;
    std::uint32_t flags = 0;
    std::vector<std::uint8_t> body;
};

/**
 * The machine-readable per-trace summary of an Analyze response: the
 * request path's TraceRunResult — field for field the batch row —
 * plus the content hash, so the batch client rebuilds its aggregate
 * report from serves alone.  path and status stay off the wire.
 */
struct ResponseMeta : TraceRunResult
{
    /** Content-addressed cache key of the uploaded bytes. */
    std::uint64_t contentHash = 0;
};

/** One parsed response. */
struct Response
{
    RespStatus status = RespStatus::Ok;
    std::uint32_t flags = 0;
    std::uint32_t retryAfterMs = 0;
    ResponseMeta meta;

    /** Analyze: the `wmrace check`-identical report text.
     *  Status: the server status JSON. */
    std::string report;

    bool ok() const { return status == RespStatus::Ok; }
    bool cacheHit() const { return flags & kRespCacheHit; }
};

/** Outcome classes of reading a frame off a socket. */
enum class FrameReadStatus : std::uint8_t {
    Ok,
    Eof,       ///< peer closed before a full frame arrived
    Malformed, ///< bytes are not a protocol frame
    TooLarge,  ///< body exceeds the caller's limit (pre-body check)
    IoError,   ///< read failed / timed out
};

/** Encode @p req as one request frame. */
std::vector<std::uint8_t> encodeRequestFrame(const Request &req);

/** Encode @p resp as one response frame. */
std::vector<std::uint8_t> encodeResponseFrame(const Response &resp);

/**
 * Read one request frame from @p fd (blocking).  @p maxBodyBytes
 * rejects an oversized announced body BEFORE reading it, so a rogue
 * upload costs a header read, not memory.  A nonzero @p deadlineMs
 * bounds the TOTAL transfer time — the per-recv SO_RCVTIMEO bounds
 * each syscall, this bounds their sum, so a slow-loris client
 * trickling bytes can never wedge a worker (IoError/ETIMEDOUT).
 */
FrameReadStatus readRequest(int fd, std::uint64_t maxBodyBytes,
                            Request &out, std::string &error,
                            std::uint32_t deadlineMs = 0);

/** Read one response frame from @p fd (blocking). */
FrameReadStatus readResponse(int fd, Response &out,
                             std::string &error);

/**
 * Decode one complete response frame from a byte buffer — the
 * in-memory twin of readResponse(), used by the result cache's disk
 * tier (which stores responses as frames) and by tests.  @p n must
 * be the exact frame length; trailing bytes are malformed.
 */
bool decodeResponseFrame(const std::uint8_t *data, std::size_t n,
                         Response &out, std::string &error);

/**
 * Write all @p n bytes at @p data to @p fd (send with NOSIGNAL; a
 * dead peer yields false, never SIGPIPE).
 */
bool writeAll(int fd, const void *data, std::size_t n);

/** Render @p resp's meta as a one-line JSON object (the
 *  `wmrace submit --meta` output; schema "wmrace-serve-meta"). */
std::string metaJson(const Response &resp);

} // namespace wmr::serve

#endif // WMR_SERVE_PROTOCOL_HH
