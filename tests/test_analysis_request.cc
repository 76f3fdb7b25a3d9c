/**
 * @file
 * The one analysis request path (pipeline/analysis_request.hh): every
 * golden trace, through every mode a surface uses, must render the
 * blessed report bytes and count exactly what `runBatch` counts — and
 * a salvage that recovers nothing is a FormatError from every source.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <unistd.h>
#include <vector>

#include "pipeline/analysis_request.hh"
#include "pipeline/batch_runner.hh"
#include "trace/segmented_io.hh"
#include "workload/synthetic_trace.hh"

namespace fs = std::filesystem;

namespace wmr {
namespace {

std::string
readText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

std::vector<std::uint8_t>
readBytes(const std::string &path)
{
    const std::string s = readText(path);
    return {s.begin(), s.end()};
}

std::vector<std::string>
goldenTraces()
{
    std::vector<std::string> out;
    for (const auto &e : fs::directory_iterator(WMR_GOLDEN_DIR)) {
        if (e.path().extension() == ".trace")
            out.push_back(e.path().string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

bool
isDamaged(const std::string &path)
{
    return fs::path(path).filename().string().find("damaged") !=
           std::string::npos;
}

/** The golden lane's blessed stdout for @p trace. */
std::string
expectedReport(const std::string &trace, bool engines)
{
    std::string base = trace.substr(0, trace.size() - 6); // ".trace"
    return readText(base + (engines ? ".engines.expected.txt"
                                    : ".expected.txt"));
}

AnalysisRequest
requestFor(const std::string &path, bool allEngines, bool stream)
{
    AnalysisRequest req;
    req.path = path;
    req.salvage = isDamaged(path);
    if (allEngines)
        req.engines = {engines::EngineKind::Hb1,
                       engines::EngineKind::Shb,
                       engines::EngineKind::Wcp};
    req.stream = stream;
    req.render = true;
    return req;
}

/** What one-trace `runBatch` records for @p req's file and mode. */
TraceRunResult
batchRowFor(const AnalysisRequest &req)
{
    CorpusScan corpus;
    corpus.files = {req.path};
    BatchOptions opts;
    opts.jobs = 1;
    opts.salvage = req.salvage;
    opts.stream = req.stream;
    opts.engineKinds = req.engines;
    const BatchResult batch = runBatch(corpus, opts);
    EXPECT_EQ(batch.traces.size(), 1u);
    return batch.traces.empty() ? TraceRunResult{} : batch.traces[0];
}

void
expectSameRow(const TraceRunResult &a, const TraceRunResult &b,
              const std::string &what)
{
    EXPECT_EQ(a.path, b.path) << what;
    EXPECT_EQ(a.status, b.status) << what;
    EXPECT_EQ(a.error, b.error) << what;
    EXPECT_EQ(a.fileBytes, b.fileBytes) << what;
    EXPECT_EQ(a.events, b.events) << what;
    EXPECT_EQ(a.syncEvents, b.syncEvents) << what;
    EXPECT_EQ(a.ops, b.ops) << what;
    EXPECT_EQ(a.races, b.races) << what;
    EXPECT_EQ(a.dataRaces, b.dataRaces) << what;
    EXPECT_EQ(a.partitions, b.partitions) << what;
    EXPECT_EQ(a.firstPartitions, b.firstPartitions) << what;
    EXPECT_EQ(a.reportedRaces, b.reportedRaces) << what;
    EXPECT_EQ(a.anyDataRace, b.anyDataRace) << what;
    EXPECT_EQ(a.wholeExecutionSc, b.wholeExecutionSc) << what;
    EXPECT_EQ(a.salvaged, b.salvaged) << what;
    EXPECT_EQ(a.unresolvedPairings, b.unresolvedPairings) << what;
    EXPECT_EQ(a.droppedDataRecords, b.droppedDataRecords) << what;
}

/** Run @p req; its rendered text must be @p expected and its row
 *  must equal the batch row of the same file and mode. */
AnalysisOutcome
expectGolden(const AnalysisRequest &req, const std::string &expected,
             const std::string &what)
{
    AnalysisOutcome out = runAnalysisRequest(req);
    EXPECT_TRUE(out.ok()) << what << ": " << out.result.error;
    EXPECT_EQ(out.provenance + out.report, expected) << what;
    expectSameRow(out.result, batchRowFor(req), what);
    return out;
}

TEST(AnalysisRequest, GoldenCorpusDefaultEngineMatchesBlessedReports)
{
    const auto traces = goldenTraces();
    ASSERT_FALSE(traces.empty());
    for (const std::string &t : traces) {
        const AnalysisOutcome out = expectGolden(
            requestFor(t, false, false), expectedReport(t, false),
            t);
        EXPECT_EQ(out.segmented, fileLooksSegmented(t)) << t;
        EXPECT_EQ(out.result.fileBytes, fs::file_size(t)) << t;
    }
}

TEST(AnalysisRequest, GoldenCorpusAllEnginesMatchBlessedReports)
{
    for (const std::string &t : goldenTraces())
        expectGolden(requestFor(t, true, false),
                     expectedReport(t, true), t + " --engine all");
}

TEST(AnalysisRequest, GoldenSegmentedTracesStreamByteIdentically)
{
    int streamed = 0;
    for (const std::string &t : goldenTraces()) {
        if (!fileLooksSegmented(t))
            continue;
        ++streamed;
        const AnalysisOutcome out =
            expectGolden(requestFor(t, false, true),
                         expectedReport(t, false), t + " --stream");
        EXPECT_GT(out.streamSegments, 0u) << t;

        // The streamed shb block equals the whole-trace one.
        AnalysisRequest shb = requestFor(t, false, true);
        shb.engines = {engines::EngineKind::Shb};
        const AnalysisOutcome s = runAnalysisRequest(shb);
        shb.stream = false;
        const AnalysisOutcome w = runAnalysisRequest(shb);
        ASSERT_TRUE(s.ok() && w.ok()) << t;
        EXPECT_GT(s.streamSegments, 0u) << t;
        EXPECT_EQ(s.provenance + s.report, w.provenance + w.report)
            << t;
        expectSameRow(s.result, w.result, t + " shb");
    }
    EXPECT_GE(streamed, 2);
}

TEST(AnalysisRequest, UploadBytesMatchFileSource)
{
    for (const std::string &t : goldenTraces()) {
        const std::vector<std::uint8_t> bytes = readBytes(t);
        for (const bool all : {false, true}) {
            AnalysisRequest req = requestFor(t, all, false);
            const AnalysisOutcome fromFile = runAnalysisRequest(req);
            req.bytes = &bytes;
            req.path.clear();
            const AnalysisOutcome fromBytes = runAnalysisRequest(req);
            TraceRunResult row = fromBytes.result;
            row.path = t;
            expectSameRow(row, fromFile.result, t + " bytes");
            EXPECT_EQ(fromBytes.provenance + fromBytes.report,
                      expectedReport(t, all))
                << t;
        }
    }
}

TEST(AnalysisRequest, BatchNeverRendersButKeepDetectionDoes)
{
    const std::string t = goldenTraces().front();
    AnalysisRequest req = requestFor(t, false, false);
    req.render = false;
    const AnalysisOutcome bare = runAnalysisRequest(req);
    ASSERT_TRUE(bare.ok());
    EXPECT_TRUE(bare.report.empty());
    EXPECT_FALSE(bare.detection.has_value());
    req.keepDetection = true;
    const AnalysisOutcome kept = runAnalysisRequest(req);
    ASSERT_TRUE(kept.detection.has_value());
    EXPECT_EQ(kept.detection->races().size(), kept.result.races);
}

TEST(AnalysisRequest, MissingFileIsAnIoError)
{
    AnalysisRequest req;
    req.path = "/nonexistent/wmrace/analysis_request.trace";
    const AnalysisOutcome out = runAnalysisRequest(req);
    EXPECT_EQ(out.result.status, TraceRunStatus::IoError);
    EXPECT_EQ(out.result.error, "cannot open trace file '" + req.path +
                                    "'");
    expectSameRow(out.result, batchRowFor(req), "missing file");
}

/** The first 12 bytes of a segmented trace: the magic survives, no
 *  segment does. */
class ZeroEventSalvage : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        SyntheticTraceOptions opts;
        opts.procs = 2;
        opts.eventsPerProc = 50;
        opts.seed = 1;
        const auto full = serializeSegmentedTrace(makeSyntheticTrace(opts));
        bytes_.assign(full.begin(), full.begin() + 12);
        path_ = (fs::temp_directory_path() /
                 ("wmr_zero_salvage." + std::to_string(::getpid()) +
                  ".trace"))
                    .string();
        std::ofstream(path_, std::ios::binary)
            .write(reinterpret_cast<const char *>(bytes_.data()),
                   static_cast<std::streamsize>(bytes_.size()));
    }

    void TearDown() override { fs::remove(path_); }

    static void
    expectRefused(const AnalysisOutcome &out, const std::string &what)
    {
        EXPECT_EQ(out.result.status, TraceRunStatus::FormatError)
            << what;
        EXPECT_EQ(out.result.error.rfind("salvage recovered no events",
                                         0),
                  0u)
            << what << ": " << out.result.error;
        EXPECT_FALSE(out.result.anyDataRace) << what;
        EXPECT_TRUE(out.report.empty()) << what;
    }

    std::vector<std::uint8_t> bytes_;
    std::string path_;
};

TEST_F(ZeroEventSalvage, RefusedFromPathBytesAndStream)
{
    AnalysisRequest req;
    req.path = path_;
    req.salvage = true;
    req.render = true;
    expectRefused(runAnalysisRequest(req), "path");
    expectSameRow(runAnalysisRequest(req).result, batchRowFor(req),
                  "path vs batch");

    req.stream = true;
    expectRefused(runAnalysisRequest(req), "stream");
    expectSameRow(runAnalysisRequest(req).result, batchRowFor(req),
                  "stream vs batch");

    req.stream = false;
    req.path.clear();
    req.bytes = &bytes_;
    expectRefused(runAnalysisRequest(req), "bytes");
}

} // namespace
} // namespace wmr
