/**
 * @file
 * The one analysis request path.  Every surface — `wmrace check`,
 * `check --stream`, `record`, `batch` and `serve` — runs the paper's
 * Section-4 method the same way: read a WMRTRC01 or WMRSEG01 trace
 * (strict, or salvaging a damaged segmented one), pick the canonical
 * hb1 report, the detector-engine family or the bounded-memory
 * streaming engine, count the outcome and optionally render it.
 * runAnalysisRequest() is that path; the surfaces keep only their
 * argument parsing, I/O and metrics.
 *
 * The outcome's TraceRunResult is simultaneously the batch report
 * row, the serve response meta and the checkpoint journal line, so
 * all three agree field for field by construction.
 */

#ifndef WMR_PIPELINE_ANALYSIS_REQUEST_HH
#define WMR_PIPELINE_ANALYSIS_REQUEST_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "detect/analysis.hh"
#include "detect/report.hh"
#include "engines/engine.hh"
#include "pipeline/metrics.hh"
#include "stream/stream_analyzer.hh"

namespace wmr {

/** Outcome class of one analyzed trace. */
enum class TraceRunStatus : std::uint8_t {
    Ok,          ///< analyzed successfully
    IoError,     ///< file missing/unreadable
    FormatError, ///< file bytes are not a well-formed trace
    Skipped,     ///< not analyzed (--fail-fast after a failure)
};

/** @return a stable lowercase name for @p status. */
const char *traceRunStatusName(TraceRunStatus status);

/** Per-trace result: either a failure reason or summary counts. */
struct TraceRunResult
{
    std::string path;
    TraceRunStatus status = TraceRunStatus::Ok;

    /** Failure reason (status != Ok). */
    std::string error;

    // --- Summary of the analysis (status == Ok) -----------------
    std::uint64_t fileBytes = 0;
    std::uint64_t events = 0;
    std::uint64_t syncEvents = 0;
    std::uint64_t ops = 0;
    std::uint64_t races = 0;
    std::uint64_t dataRaces = 0;
    std::uint64_t partitions = 0;
    std::uint64_t firstPartitions = 0;
    std::uint64_t reportedRaces = 0;
    bool anyDataRace = false;
    bool wholeExecutionSc = false;

    // --- Provenance (segmented "WMRSEG01" traces only) ----------
    /** The trace was a damaged/truncated segmented file and only
     *  the valid checksummed prefix was analyzed. */
    bool salvaged = false;

    /** Acquire events whose paired release was lost with the
     *  dropped tail (so1 edges missing => races may be missed). */
    std::uint64_t unresolvedPairings = 0;

    /** Data records the recorder's Drop overflow policy lost. */
    std::uint64_t droppedDataRecords = 0;

    bool ok() const { return status == TraceRunStatus::Ok; }
    bool
    failed() const
    {
        return status == TraceRunStatus::IoError ||
               status == TraceRunStatus::FormatError;
    }
};

/** Span names of a request's stages (static strings, see
 *  docs/OBSERVABILITY.md).  Batch and serve keep their own. */
struct RequestSpans
{
    const char *read = "request.read";
    const char *parse = "request.parse";
    const char *analyze = "request.analyze";
};

/** One trace to analyze, and how. */
struct AnalysisRequest
{
    /** The trace file (used when bytes is null). */
    std::string path;

    /** An in-memory upload (serve); wins over path.  Not owned. */
    const std::vector<std::uint8_t> *bytes = nullptr;

    /**
     * Recover the longest valid prefix of a damaged segmented trace
     * instead of failing it.  A salvage that recovers no events is
     * still a FormatError on every surface.
     */
    bool salvage = false;

    /** Detector engines (engines/family.hh); empty = the canonical
     *  hb1 report. */
    std::vector<engines::EngineKind> engines;

    /**
     * Analyze a segmented file with the bounded-memory streaming
     * engine (src/stream/): O(window) memory, identical results.
     * Applies to path sources in the WMRSEG01 container whose engine
     * set is empty or exactly {shb}; anything else runs whole-trace.
     */
    bool stream = false;

    /** Streaming GC window, in segments (StreamOptions). */
    std::size_t window = 4;

    /** Whole-trace analysis knobs (threads also drive the engines). */
    AnalysisOptions analysis;

    /** Render the provenance header and the report text. */
    bool render = false;

    /** Rendering options of the canonical hb1 report. */
    ReportOptions report;

    /** Keep the canonical DetectionResult (e.g. for DOT export). */
    bool keepDetection = false;

    RequestSpans spans;
};

/** Everything one request produced. */
struct AnalysisOutcome
{
    /** Status, error and counts (path set for path sources). */
    TraceRunResult result;

    /** The source was a WMRSEG01 container. */
    bool segmented = false;

    /** formatTraceProvenance() header and report (render only). */
    std::string provenance;
    std::string report;

    /** Wall seconds of the read, parse and analyze stages. */
    StageSeconds stages;

    /** Per-stage detail of the canonical hb1 analysis. */
    AnalysisStats analysis;

    // Streaming-engine shape (streamed requests only).
    std::uint64_t streamSegments = 0;
    std::uint64_t peakResident = 0;
    std::uint64_t windowsRetired = 0;

    /** The canonical analysis, when keepDetection asked for it. */
    std::optional<DetectionResult> detection;

    bool ok() const { return result.ok(); }
};

/** Run @p req end to end.  Never aborts on bad input: unreadable or
 *  malformed traces come back as IoError / FormatError. */
AnalysisOutcome runAnalysisRequest(const AnalysisRequest &req);

/**
 * Fill @p out from a finished streaming analysis — the tail of a
 * streamed request.  Public for `record --live`, whose analyzer is
 * fed while the recording child still runs.
 */
void finishStreamRequest(const StreamResult &sr,
                         const AnalysisRequest &req,
                         AnalysisOutcome &out);

/** @return whether the file at @p path starts with the segmented
 *  trace magic (false on unreadable files too). */
bool fileLooksSegmented(const std::string &path);

} // namespace wmr

#endif // WMR_PIPELINE_ANALYSIS_REQUEST_HH
