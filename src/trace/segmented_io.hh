/**
 * @file
 * The segmented, checksummed trace container ("WMRSEG01") — the
 * crash-resilient sibling of the classic single-blob EVENT format.
 *
 * The classic container (trace_io.hh) is written in one shot at the
 * end of a recording, so the executions most worth debugging — the
 * ones that crash or wedge on a race — lose their trace entirely.
 * This container is APPEND-ONLY: the recorder spills sealed events
 * incrementally as framed segments, each protected by a length
 * header and a CRC-32 footer, so whatever prefix reached the disk
 * before a crash is recoverable:
 *
 *   file     := "WMRSEG01" segment*
 *   segment  := len:u32le payload crc:u32le      crc = CRC32(payload)
 *   payload  := 'D' opsSoFar droppedSoFar nevents event*
 *             | 'F' procs memWords firstStaleRead totalOps
 *                   droppedRecords
 *   event    := kind proc firstOp lastOp opCount
 *               sync(kind=1): memop pairing     (pairing = 1 + file
 *                 ordinal of the paired release event, 0 = unpaired)
 *               comp(kind=0): nread wordDelta* nwrite wordDelta*
 *                 (strictly increasing word ids, delta-coded)
 *
 * A final 'F' (FIN) segment marks a clean shutdown and carries the
 * authoritative shape plus the Drop-policy loss count.  Readers:
 *
 *  - tryReadSegmentedTraceFile(): STRICT — every frame must verify
 *    and the FIN must be present (a complete recording);
 *  - trySalvageTraceFile(): TOLERANT — recovers the longest valid
 *    checksummed segment prefix of a truncated/corrupt file and
 *    reports what was lost, so analysis can still run on the prefix.
 *
 * Integration: tryReadTraceFile() (trace_io.hh) sniffs this magic
 * and delegates to the strict reader, so `wmrace check`/`batch`
 * accept both containers transparently; the salvage reader is the
 * abnormal-exit path of `wmrace record` and `wmrace batch`.
 */

#ifndef WMR_TRACE_SEGMENTED_IO_HH
#define WMR_TRACE_SEGMENTED_IO_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/trace_io.hh"

namespace wmr {

/** @return whether @p n bytes at @p data start with the segmented
 *  container magic. */
bool looksSegmented(const std::uint8_t *data, std::size_t n);

/** What a (possibly partial) segmented read recovered and lost. */
struct SalvageInfo
{
    /** A FIN segment was decoded: the recording shut down cleanly. */
    bool finSeen = false;

    /** The file was incomplete or damaged: no FIN, or a bad tail. */
    bool salvaged = false;

    std::uint64_t segmentsRecovered = 0;

    /** Damaged/undecodable trailing frames (0 when only the FIN is
     *  missing — e.g. the recorder was SIGKILLed between spills). */
    std::uint64_t segmentsDropped = 0;

    /** Bytes of the file discarded after the last valid segment. */
    std::uint64_t bytesDropped = 0;

    std::uint64_t eventsRecovered = 0;
    std::uint64_t opsRecovered = 0;

    /** Acquire events whose paired release fell outside the
     *  recovered prefix (their so1 edge is dropped). */
    std::uint64_t unresolvedPairings = 0;

    /** Data records lost to the recorder's Drop overflow policy, as
     *  of the last recovered segment (FIN value when finSeen). */
    std::uint64_t droppedDataRecords = 0;

    /** Why recovery stopped (empty for a clean, complete file). */
    std::string note;

    /** @return a one-line human summary ("complete" when clean). */
    std::string summary() const;
};

/** Outcome of a segmented read/salvage. */
struct SegTraceReadResult
{
    TraceIoStatus status = TraceIoStatus::Ok;
    ExecutionTrace trace;
    std::string error;
    SalvageInfo salvage;

    bool ok() const { return status == TraceIoStatus::Ok; }
};

/**
 * Render the report header lines stating what an analyzed trace
 * actually is — salvage provenance and recorder-side data loss — so
 * a partial or Drop-mode trace can never masquerade as a complete
 * one.  Empty for a non-segmented or clean, lossless trace.  Both
 * `wmrace check` and the serve subsystem emit EXACTLY this string
 * ahead of the report, which is what keeps a served analysis
 * byte-identical to a local one.
 */
std::string formatTraceProvenance(bool segmented,
                                  const SalvageInfo &salvage);

/**
 * STRICT read of a complete segmented trace: all frames verify, FIN
 * present.  Damage or a missing FIN yields FormatError whose message
 * points at the salvage reader.
 */
SegTraceReadResult
tryReadSegmentedTrace(const std::vector<std::uint8_t> &bytes);
SegTraceReadResult
tryReadSegmentedTraceFile(const std::string &path);

/**
 * TOLERANT read: recover the longest valid checksummed segment
 * prefix.  Only an unreadable file or an unrecognizable header (not
 * even the magic survives) fails; an empty prefix (zero segments)
 * comes back ok() with an empty trace and salvage.salvaged set.
 */
SegTraceReadResult
trySalvageTrace(const std::vector<std::uint8_t> &bytes);
SegTraceReadResult trySalvageTraceFile(const std::string &path);

/**
 * The fault-injection sites of a whole-file segmented read
 * (`trace.read.short`, `trace.read.bitflip`; docs/FAULTS.md), applied
 * to @p bytes just read from disk.  The file readers above call it;
 * so does every other loader of segmented files.
 */
void injectReadFaults(std::vector<std::uint8_t> &bytes);

/**
 * One decoded event in FILE order, exactly as framed on the wire:
 * the pairing field is the ordinal reference (1 + file ordinal of the
 * paired release, 0 = unpaired) — consumers that process segments
 * incrementally (the streaming analyzer) resolve it themselves.
 */
struct SegFileEvent
{
    EventKind kind = EventKind::Computation;
    ProcId proc = 0;
    OpId firstOp = kNoOp;
    OpId lastOp = kNoOp;
    std::uint32_t opCount = 0;
    MemOp syncOp;
    std::uint64_t pairing = 0; // 1 + file ordinal, 0 = unpaired
    std::vector<Addr> readWords;
    std::vector<Addr> writeWords;
};

/** Shape written into the FIN segment. */
struct SegShape
{
    ProcId procs = 0;
    Addr memWords = 0;
    OpId firstStaleRead = kNoOp;
    std::uint64_t totalOps = 0;

    /** Drop-policy data-record losses of the whole recording. */
    std::uint64_t droppedRecords = 0;
};

/** One decoded DATA segment, in file order. */
struct SegTailSegment
{
    /** Running counters the writer embeds in every data segment. */
    std::uint64_t opsSoFar = 0;
    std::uint64_t droppedSoFar = 0;

    std::vector<SegFileEvent> events;
};

/** Outcome of one SegmentTailReader::poll(). */
enum class TailPollStatus : std::uint8_t
{
    /** Decoded at least one new segment. */
    Progress,

    /** No complete new frame yet — the tail is mid-frame or empty.
     *  On a LIVE file this means "more may come", NOT damage: keep
     *  polling (or finalize() once the writer is known dead). */
    Waiting,

    /** The FIN segment was decoded: the recording is complete. */
    Fin,

    /** Unrecoverable damage (bad magic, zero/oversized length,
     *  checksum mismatch on a complete frame, payload that fails to
     *  decode, data after FIN).  No amount of further appending can
     *  heal it; recovery stops at the last good frame. */
    Damaged,
};

/**
 * Tail-follow segment reader: consume a WMRSEG01 file AS IT IS BEING
 * APPENDED, resuming from the offset after the last verified frame.
 *
 * This is the live sibling of trySalvageTraceFile().  The salvage
 * reader sees a snapshot and must treat an incomplete tail as a torn
 * write; the tail reader instead distinguishes the two by liveness:
 * a mid-frame tail is Waiting while the writer may still append, and
 * becomes damage only when finalize() declares the stream over.
 * Damage that appending can never heal — a checksum mismatch on a
 * fully present frame, an impossible length — is reported as Damaged
 * immediately, even live.
 *
 * Usage:
 *   SegmentTailReader tail;
 *   tail.open(path);                 // retry while the file appears
 *   while (...) {
 *       switch (tail.poll(segs)) { ... consume segs ... }
 *   }
 *   tail.finalize(strict);           // writer exited / EOF is final
 *
 * After finalize(), salvage() carries the same accounting a
 * trySalvageTraceFile() of the final file would produce (except
 * unresolvedPairings, which only the event consumer can count), and
 * in strict mode error() carries the same message the strict reader
 * would raise.
 */
class SegmentTailReader
{
  public:
    SegmentTailReader() = default;
    ~SegmentTailReader();

    SegmentTailReader(const SegmentTailReader &) = delete;
    SegmentTailReader &operator=(const SegmentTailReader &) = delete;

    /** Open @p path for following. Fails if it cannot be opened. */
    bool open(const std::string &path);

    bool isOpen() const { return fd_ >= 0; }

    /**
     * Read newly appended bytes and decode every complete frame,
     * appending decoded DATA segments to @p segs.  @return Progress
     * when ≥1 frame (data or FIN) was consumed, otherwise the
     * terminal/waiting status.
     */
    TailPollStatus poll(std::vector<SegTailSegment> &segs);

    /**
     * Declare that no more data will arrive (writer exited, or the
     * file was complete on disk to begin with).  Strict mode fails
     * (error() set, matching tryReadSegmentedTrace messages) on any
     * damage, incomplete tail, or missing FIN; tolerant mode folds
     * the outcome into salvage() exactly as trySalvageTrace would.
     * @return whether the stream is acceptable under @p strict.
     */
    bool finalize(bool strict);

    /** Scan-level salvage accounting (valid after finalize();
     *  unresolvedPairings is left 0 — the consumer owns it). */
    const SalvageInfo &salvage() const { return salvage_; }

    bool finSeen() const { return finSeen_; }

    /** FIN shape (valid when finSeen()). */
    const SegShape &fin() const { return fin_; }

    /** File offset after the last verified frame (resume point). */
    std::uint64_t offset() const { return consumed_; }

    /** Total file bytes observed so far. */
    std::uint64_t bytesSeen() const { return seen_; }

    std::uint64_t segmentsRead() const { return segments_; }
    std::uint64_t eventsRead() const { return events_; }

    const std::string &error() const { return error_; }

  private:
    TailPollStatus fail(std::uint64_t at, const std::string &why);

    int fd_ = -1;
    std::uint64_t consumed_ = 0; // offset after last verified frame
    std::uint64_t seen_ = 0;     // total bytes read from the file

    /** Unconsumed bytes [consumed_, seen_). */
    std::vector<std::uint8_t> buf_;

    bool magicOk_ = false;
    bool finSeen_ = false;
    bool damaged_ = false;
    bool finalized_ = false;
    SegShape fin_;
    std::uint64_t segments_ = 0;
    std::uint64_t events_ = 0;
    std::uint64_t ops_ = 0;
    std::uint64_t droppedSoFar_ = 0;
    std::uint64_t damageAt_ = 0;
    std::string damageNote_;
    SalvageInfo salvage_;
    std::string error_;
};

/**
 * One event as the segmented container carries it — word lists
 * instead of universe-sized bitsets, so events can be encoded before
 * the address universe is known (the whole point of spilling).
 */
struct SegEvent
{
    EventKind kind = EventKind::Computation;
    ProcId proc = 0;
    OpId firstOp = kNoOp;
    OpId lastOp = kNoOp;
    std::uint32_t opCount = 0;

    /** Computation payload: touched word ids (need not be sorted or
     *  unique; the encoder canonicalizes). */
    std::vector<Addr> readWords;
    std::vector<Addr> writeWords;

    /** Sync payload. */
    MemOp syncOp;

    /** Sync release: producer-chosen nonzero token later acquires
     *  reference; sync acquire: token of the observed release (0 =
     *  unpaired).  Tokens never reach the wire — the writer resolves
     *  them to file ordinals.  Reusing a token rebinds it to the
     *  newest release carrying it, so a bounded-memory producer can
     *  use one token per sync location instead of one per release. */
    std::uint64_t releaseToken = 0;
    std::uint64_t pairedToken = 0;
};

/**
 * Incremental segment writer over a raw file descriptor.
 *
 * Usage (the recorder's drain thread): open(), then addEvent() as
 * events seal; sealSegment() when pendingBytes() crosses the spill
 * threshold or the drain goes idle; finish() at clean shutdown.
 *
 * crashSeal() is the fatal-signal path: it frames and writes the
 * pending payload and fsyncs using only async-signal-safe syscalls
 * plus arithmetic on memory that is already allocated.  If the drain
 * thread was mid-append when the signal hit, the frame may be torn —
 * the CRC then fails and salvage drops exactly that final segment,
 * which is the contract: best effort, never a lie.
 */
class SegmentSpillWriter
{
  public:
    SegmentSpillWriter() = default;
    ~SegmentSpillWriter();

    SegmentSpillWriter(const SegmentSpillWriter &) = delete;
    SegmentSpillWriter &operator=(const SegmentSpillWriter &) = delete;

    /** Create/truncate @p path and write the magic. */
    bool open(const std::string &path);

    bool isOpen() const { return fd_ >= 0; }
    const std::string &lastError() const { return error_; }

    /** Running counters embedded in every data segment, so salvage
     *  can report losses up to the recovered prefix. */
    void
    setCounters(std::uint64_t opsEmitted, std::uint64_t dropped)
    {
        ops_ = opsEmitted;
        dropped_ = dropped;
    }

    /** Append one sealed event to the pending segment payload. */
    void addEvent(const SegEvent &ev);

    std::size_t pendingBytes() const;
    std::uint64_t pendingEvents() const { return pendingEvents_; }

    /** Frame and write the pending payload (no-op when empty). */
    bool sealSegment();

    /** Seal the remainder, write the FIN segment, fsync, close. */
    bool finish(const SegShape &shape);

    /** Fatal-signal flush: seal pending + fsync, nothing else. */
    bool crashSeal();

    /**
     * Fault-injection hook (WMR_RT_FAULT=crash-mid-segment): append
     * a deliberately truncated frame — a length header promising more
     * payload than follows — so tests can prove salvage drops exactly
     * the damaged tail.
     */
    void writeTornFrame();

    std::uint64_t segmentsWritten() const { return segments_; }
    std::uint64_t bytesWritten() const { return bytes_; }

  private:
    /** @p faults=false is the crash-handler path: fault::at() takes
     *  locks and must never run in async-signal context. */
    bool writeFrame(const std::uint8_t *hdr, std::size_t hdrLen,
                    const std::uint8_t *body, std::size_t bodyLen,
                    bool fsyncAfter, bool faults = true);
    bool fail(const std::string &why);

    int fd_ = -1;
    std::string error_;

    // Pending DATA payload: the event bytes accumulate here; the
    // 'D'+counters+count header is prepended at seal time.
    std::vector<std::uint8_t> pending_;
    std::uint64_t pendingEvents_ = 0;

    std::uint64_t ops_ = 0;
    std::uint64_t dropped_ = 0;

    // Token -> file ordinal of the newest release carrying it
    // (pairing resolution, latest wins).
    std::unordered_map<std::uint64_t, std::uint64_t> tokenMap_;
    std::uint64_t nextOrdinal_ = 0;

    std::uint64_t segments_ = 0;
    std::uint64_t bytes_ = 0;
};

/**
 * Serialize a whole ExecutionTrace into the segmented container,
 * @p eventsPerSegment events per frame — the test/tooling producer
 * (the recorder spills through SegmentSpillWriter instead).
 */
std::vector<std::uint8_t>
serializeSegmentedTrace(const ExecutionTrace &trace,
                        std::size_t eventsPerSegment = 64);

/** Write @p trace to @p path segmented. @return bytes written. */
std::size_t
writeSegmentedTraceFile(const ExecutionTrace &trace,
                        const std::string &path,
                        std::size_t eventsPerSegment = 64);

} // namespace wmr

#endif // WMR_TRACE_SEGMENTED_IO_HH
