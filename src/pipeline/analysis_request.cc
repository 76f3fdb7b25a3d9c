#include "pipeline/analysis_request.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "engines/family.hh"
#include "engines/shb_engine.hh"
#include "obs/obs.hh"
#include "trace/segmented_io.hh"
#include "trace/trace_io.hh"

namespace wmr {

namespace {

void
fail(AnalysisOutcome &out, TraceIoStatus status, std::string error)
{
    out.result.status = status == TraceIoStatus::IoError
                            ? TraceRunStatus::IoError
                            : TraceRunStatus::FormatError;
    out.result.error = std::move(error);
}

/**
 * A salvage that recovered no events fails, so the file is refused
 * (and quarantined by batch) instead of passing as a clean, empty
 * analysis.  @return whether @p out was failed.
 */
bool
recoveredNothing(const SalvageInfo &s, std::uint64_t events,
                 AnalysisOutcome &out)
{
    if (!s.salvaged || events != 0)
        return false;
    fail(out, TraceIoStatus::FormatError,
         "salvage recovered no events (" + s.summary() + ")");
    return true;
}

void
noteSalvage(const SalvageInfo &s, TraceRunResult &rr)
{
    rr.salvaged = s.salvaged;
    rr.unresolvedPairings = s.unresolvedPairings;
    rr.droppedDataRecords = s.droppedDataRecords;
}

/**
 * The read stage of a path source: sniff the container, then read the
 * file whole — except a segmented file bound for the streaming engine
 * (@p streamable), of which only the 8-byte magic is ever read.
 */
bool
readSource(const std::string &path, bool streamable,
           std::vector<std::uint8_t> &bytes, AnalysisOutcome &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        fail(out, TraceIoStatus::IoError,
             "cannot open trace file '" + path + "'");
        return false;
    }
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    const auto readTo = [&](std::uintmax_t n) {
        const std::size_t have = bytes.size();
        bytes.resize(n);
        return in.read(reinterpret_cast<char *>(bytes.data() + have),
                       static_cast<std::streamsize>(n - have))
            .good();
    };
    const auto readError = [&] {
        fail(out, TraceIoStatus::IoError,
             "read error on trace file '" + path + "'");
        return false;
    };
    if (ec || !readTo(std::min<std::uintmax_t>(size, 8)))
        return readError();
    out.segmented = looksSegmented(bytes.data(), bytes.size());
    if (!(streamable && out.segmented)) {
        if (!readTo(size))
            return readError();
        if (out.segmented)
            injectReadFaults(bytes);
    }
    out.result.fileBytes = size;
    return true;
}

/**
 * Fill @p out's counts from a detector-family run.  races/dataRaces
 * come from the weakest chain engine that ran (the superset under the
 * containment chain, so "races" reads as "everything any selected
 * engine predicts"); the partition fields come from hb1 when it ran
 * and stay 0 otherwise; anyDataRace is the family OR.
 */
void
fillFromEngineFamily(const engines::EngineFamilyResult &fam,
                     TraceRunResult &out)
{
    out.events = fam.info.numEvents;
    out.syncEvents = fam.info.numSyncEvents;
    out.ops = fam.info.totalOps;

    const engines::EngineVerdict *primary = nullptr;
    for (const engines::EngineVerdict &v : fam.verdicts) {
        if (!v.opLevel)
            primary = &v;
    }
    if (primary != nullptr) {
        out.races = primary->races.size();
        out.dataRaces = primary->numDataRaces;
    }
    if (const engines::EngineVerdict *hb1 = fam.verdict("hb1")) {
        out.partitions = hb1->partitions;
        out.firstPartitions = hb1->firstPartitions;
        out.reportedRaces = hb1->reported.size();
    }
    out.anyDataRace = fam.anyDataRace;
    // Same rule the SCP stage applies (scp.cc): the whole execution
    // is sequentially consistent iff no read ever returned a stale
    // value.
    out.wholeExecutionSc = fam.info.firstStaleRead == kNoOp;
}

/**
 * Synthesize the SHB verdict block from a finished streaming
 * analysis.  SHB's race set equals the full hb1-unordered set — the
 * exact set the streaming engine enumerates — so a streamed
 * `--engine shb` prints byte-identically to the whole-trace one.
 * wcp (lock-region history) and hb1 (partition structure) need
 * whole-trace state the bounded-memory window retires.
 */
engines::EngineFamilyResult
shbFamilyFromStream(const StreamResult &sr)
{
    engines::EngineFamilyResult fam;
    fam.info.numEvents = sr.events;
    fam.info.numSyncEvents =
        static_cast<std::uint32_t>(sr.syncEvents);
    fam.info.totalOps = sr.ops;

    engines::EngineVerdict v;
    v.engine = "shb";
    v.semantics = engines::ShbEngine::semanticsLine();
    v.races.reserve(sr.report.races.size());
    for (const ReportRaceModel &r : sr.report.races) {
        engines::EngineRace er;
        er.a = r.a.id;
        er.b = r.b.id;
        er.addrs = r.addrs;
        er.isDataRace = r.isDataRace;
        v.races.push_back(std::move(er));
    }
    for (std::uint32_t i = 0; i < v.races.size(); ++i) {
        if (v.races[i].isDataRace)
            ++v.numDataRaces;
        v.reported.push_back(i);
    }
    v.anyDataRace = v.numDataRaces != 0;
    v.firstRacePerVar = engines::firstRacePerVariable(v.races);

    fam.anyDataRace = v.anyDataRace;
    fam.verdicts.push_back(std::move(v));
    return fam;
}

/** The analyze stage of a whole-trace request. */
void
analyzeWhole(ExecutionTrace trace, const SalvageInfo &salvage,
             const AnalysisRequest &req, AnalysisOutcome &out)
{
    TraceRunResult &rr = out.result;
    if (!req.engines.empty()) {
        engines::EngineFamilyOptions fopts;
        fopts.kinds = req.engines;
        fopts.threads = req.analysis.threads;
        const engines::EngineFamilyResult fam =
            engines::runEngineFamily(trace, fopts);
        fillFromEngineFamily(fam, rr);
        if (req.render)
            out.report = engines::formatFamilyReport(fam);
    } else {
        DetectionResult det =
            analyzeTrace(std::move(trace), req.analysis);
        rr.events = det.trace().events().size();
        rr.syncEvents = det.trace().numSyncEvents();
        rr.ops = det.trace().totalOps();
        rr.races = det.races().size();
        rr.dataRaces = det.numDataRaces();
        rr.partitions = det.partitions().partitions.size();
        rr.firstPartitions = det.partitions().firstPartitions.size();
        rr.reportedRaces = det.reportedRaces().size();
        rr.anyDataRace = det.anyDataRace();
        rr.wholeExecutionSc = det.scp().wholeExecutionSc;
        out.analysis = det.stats();
        if (req.render)
            out.report = formatReport(det, nullptr, req.report);
        if (req.keepDetection)
            out.detection.emplace(std::move(det));
    }
    if (req.render)
        out.provenance = formatTraceProvenance(out.segmented, salvage);
}

} // namespace

const char *
traceRunStatusName(TraceRunStatus status)
{
    switch (status) {
      case TraceRunStatus::Ok:
        return "ok";
      case TraceRunStatus::IoError:
        return "io_error";
      case TraceRunStatus::FormatError:
        return "format_error";
      case TraceRunStatus::Skipped:
        return "skipped";
    }
    return "unknown";
}

bool
fileLooksSegmented(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::uint8_t head[8] = {};
    if (!in.read(reinterpret_cast<char *>(head), sizeof(head)))
        return false;
    return looksSegmented(head, sizeof(head));
}

void
finishStreamRequest(const StreamResult &sr, const AnalysisRequest &req,
                    AnalysisOutcome &out)
{
    out.segmented = true;
    out.streamSegments = sr.segments;
    out.peakResident = sr.peakResident;
    out.windowsRetired = sr.windowsRetired;
    if (!sr.ok) {
        fail(out, TraceIoStatus::FormatError, sr.error);
        return;
    }
    if (recoveredNothing(sr.salvage, sr.events, out))
        return;
    TraceRunResult &rr = out.result;
    noteSalvage(sr.salvage, rr);
    if (!req.engines.empty()) {
        const engines::EngineFamilyResult fam = shbFamilyFromStream(sr);
        fillFromEngineFamily(fam, rr);
        if (req.render)
            out.report = engines::formatFamilyReport(fam);
    } else {
        rr.events = sr.events;
        rr.syncEvents = sr.syncEvents;
        rr.ops = sr.ops;
        rr.races = sr.races;
        rr.dataRaces = sr.dataRaces;
        rr.partitions = sr.partitions;
        rr.firstPartitions = sr.firstPartitions;
        rr.reportedRaces = sr.reportedRaces;
        rr.anyDataRace = sr.anyDataRace;
        rr.wholeExecutionSc = sr.wholeExecutionSc;
        if (req.render)
            out.report =
                renderReport(sr.report, nullptr, ReportOptions{});
    }
    if (req.render)
        out.provenance = formatTraceProvenance(true, sr.salvage);
}

AnalysisOutcome
runAnalysisRequest(const AnalysisRequest &req)
{
    AnalysisOutcome out;
    out.result.path = req.path;
    const bool streamable =
        req.stream && req.bytes == nullptr &&
        (req.engines.empty() ||
         req.engines ==
             std::vector<engines::EngineKind>{engines::EngineKind::Shb});

    std::vector<std::uint8_t> fileBytes;
    const std::vector<std::uint8_t> *bytes = req.bytes;
    if (bytes == nullptr) {
        obs::StagedSpan s(req.spans.read, out.stages.read);
        if (!readSource(req.path, streamable, fileBytes, out))
            return out;
        bytes = &fileBytes;
    } else {
        out.result.fileBytes = bytes->size();
        out.segmented = looksSegmented(bytes->data(), bytes->size());
    }

    if (streamable && out.segmented) {
        obs::StagedSpan s(req.spans.analyze, out.stages.analyze);
        StreamOptions sopts;
        sopts.strict = !req.salvage;
        sopts.includeSyncSyncRaces =
            req.analysis.finder.includeSyncSyncRaces;
        sopts.windowSegments = req.window;
        finishStreamRequest(streamAnalyzeFile(req.path, sopts), req,
                            out);
        return out;
    }

    ExecutionTrace trace;
    SalvageInfo salvage;
    {
        obs::StagedSpan s(req.spans.parse, out.stages.parse);
        if (out.segmented) {
            SegTraceReadResult seg = req.salvage
                                         ? trySalvageTrace(*bytes)
                                         : tryReadSegmentedTrace(*bytes);
            if (!seg.ok()) {
                fail(out, seg.status, std::move(seg.error));
                return out;
            }
            if (recoveredNothing(seg.salvage, seg.trace.events().size(),
                                 out))
                return out;
            noteSalvage(seg.salvage, out.result);
            salvage = std::move(seg.salvage);
            trace = std::move(seg.trace);
        } else {
            TraceReadResult parsed = tryDeserializeTrace(*bytes);
            if (!parsed.ok()) {
                fail(out, parsed.status, std::move(parsed.error));
                return out;
            }
            trace = std::move(parsed.trace);
        }
    }
    // The raw bytes are dead weight once parsed: free them before the
    // analysis builds its graphs.
    std::vector<std::uint8_t>().swap(fileBytes);

    obs::StagedSpan s(req.spans.analyze, out.stages.analyze);
    analyzeWhole(std::move(trace), salvage, req, out);
    return out;
}

} // namespace wmr
