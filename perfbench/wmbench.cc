/**
 * @file
 * wmbench — the benchmark's helper program.  perfbench/run.py drives
 * it; it links the wmrace libraries and never replaces the `wmrace`
 * commands the end-to-end metrics time.
 *
 *   wmbench selftest
 *       check the race oracle on hand-built traces
 *   wmbench draw <workload> <seed>
 *       print the sub-seeds the workload's traces are drawn from
 *       (a JSON list; empty for workloads that draw none)
 *   wmbench gen <workload> <seed> <dir> [<drawn>...]
 *       write the workload's traces into <dir>/traces
 *   wmbench oracle <workload> <seed> <dir> [<drawn>...]
 *       regenerate every trace in memory, run the race oracle on it,
 *       confirm the written file holds exactly that trace, and write
 *       <dir>/manifest.json
 *   wmbench serve-ctl <socket> wait|status|shutdown
 *       wait: poll a starting `wmrace serve` with Status requests
 *       until it answers; status: one Status request; both print the
 *       status JSON.  shutdown: ask the server to drain and exit
 *   wmbench serve-load <socket> <refdir> <min-seconds> <min-passes>
 *                      <warmup-passes> <trace>...
 *       closed-loop client of a running `wmrace serve` on two
 *       connections; every reply must equal
 *       <refdir>/<trace file name>.txt
 *   wmbench layers <workload> <seed> <dir> <span-file> [<drawn>...]
 *       traced run: call each layer's public functions in the order
 *       the CLI calls them, with a span around each call
 *
 * <drawn> are the sub-seeds `wmbench draw` printed.  Every subcommand
 * prints one JSON object on stdout (selftest, gen and shutdown
 * excepted) and exits 0 on success, 1 on a failed check, 2 on misuse.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/hash64.hh"
#include "detect/analysis.hh"
#include "detect/report.hh"
#include "engines/family.hh"
#include "hb/hb_graph.hh"
#include "hb/reachability.hh"
#include "oracle.hh"
#include "pipeline/aggregate_report.hh"
#include "pipeline/batch_runner.hh"
#include "pipeline/trace_corpus.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "spans.hh"
#include "stream/stream_analyzer.hh"
#include "trace/segmented_io.hh"
#include "trace/trace_io.hh"
#include "workloads.hh"

namespace fs = std::filesystem;
using namespace wmbench;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

bool
writeFile(const std::string &path, const std::string &data)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    const bool ok =
        std::fwrite(data.data(), 1, data.size(), f) == data.size();
    return std::fclose(f) == 0 && ok;
}

/** @return resident set size of this process in bytes. */
double
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    double size = 0, resident = 0;
    statm >> size >> resident;
    return resident * static_cast<double>(sysconf(_SC_PAGESIZE));
}

std::uint64_t
parseSeed(const char *text)
{
    return std::strtoull(text, nullptr, 10);
}

/** The workload's trace specs; the sub-seeds drawn for it are the
 *  arguments from @p drawn on. */
std::vector<TraceSpec>
specsOrDie(const std::string &workload, const char *seedText,
           char **drawn, char **drawnEnd)
{
    std::vector<std::uint64_t> seeds;
    for (; drawn != drawnEnd; ++drawn)
        seeds.push_back(parseSeed(*drawn));
    const auto specs = workloadTraces(workload, parseSeed(seedText), seeds);
    if (!specs) {
        std::fprintf(stderr,
                     "wmbench: unknown workload '%s' or wrong number "
                     "of drawn sub-seeds\n",
                     workload.c_str());
        std::exit(2);
    }
    return *specs;
}

std::string
tracePath(const std::string &dir, const TraceSpec &spec)
{
    return dir + "/traces/" + spec.file;
}

int
cmdDraw(const std::string &workload, const char *seed)
{
    const std::vector<std::uint64_t> drawn =
        drawSeeds(workload, parseSeed(seed));
    std::printf("[");
    for (std::size_t i = 0; i < drawn.size(); ++i)
        std::printf("%s\"%llu\"", i ? ", " : "",
                    static_cast<unsigned long long>(drawn[i]));
    std::printf("]\n");
    return 0;
}

int
cmdGen(const std::vector<TraceSpec> &specs, const std::string &dir)
{
    fs::create_directories(dir + "/traces");
    for (const TraceSpec &spec : specs) {
        if (writeTrace(spec, tracePath(dir, spec)) == 0) {
            std::fprintf(stderr, "wmbench: cannot write %s\n",
                         tracePath(dir, spec).c_str());
            return 1;
        }
    }
    return 0;
}

int
cmdOracle(const std::vector<TraceSpec> &specs, const std::string &dir)
{
    bool allOk = true;
    std::string json = "{\"traces\": [";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const TraceSpec &spec = specs[i];
        const wmr::ExecutionTrace trace = makeTrace(spec);
        const OracleVerdict v = oracleRaces(trace);
        const std::vector<std::uint8_t> bytes =
            wmr::serializeSegmentedTrace(trace);
        const std::string onDisk = readFile(tracePath(dir, spec));
        const bool same =
            onDisk.size() == bytes.size() &&
            std::equal(bytes.begin(), bytes.end(),
                       reinterpret_cast<const std::uint8_t *>(
                           onDisk.data()));
        allOk = allOk && v.ok && same;
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "%s\n{\"file\": \"traces/%s\", \"events\": %zu, "
            "\"sync_events\": %u, \"oracle_ok\": %s, "
            "\"oracle_data_races\": %llu, \"drf_program\": %s, "
            "\"file_matches_generator\": %s}",
            i ? "," : "", spec.file.c_str(), trace.events().size(),
            trace.numSyncEvents(), v.ok ? "true" : "false",
            static_cast<unsigned long long>(v.dataRaces),
            spec.synthetic ? "false"
                           : (spec.raceFreeProgram ? "true" : "false"),
            same ? "true" : "false");
        json += buf;
        if (!v.ok)
            std::fprintf(stderr, "wmbench: oracle on %s: %s\n",
                         spec.file.c_str(), v.error.c_str());
    }
    json += "\n]}\n";
    if (!writeFile(dir + "/manifest.json", json))
        return 1;
    return allOk ? 0 : 1;
}

int
cmdServeCtl(const char *socket, const std::string &action)
{
    wmr::serve::ServerAddress addr;
    std::string error;
    if (!wmr::serve::parseServerAddress(socket, addr, error)) {
        std::fprintf(stderr, "wmbench: %s\n", error.c_str());
        return 2;
    }
    if (action == "shutdown") {
        const wmr::serve::SubmitResult r =
            wmr::serve::requestShutdown(addr);
        if (!r.ok)
            std::fprintf(stderr, "wmbench: shutdown: %s\n",
                         r.error.c_str());
        return r.ok ? 0 : 1;
    }
    if (action != "wait" && action != "status")
        return 2;
    // A starting server refuses connections until it listens.
    const Clock::time_point deadline =
        Clock::now() + std::chrono::seconds(action == "wait" ? 60 : 0);
    for (;;) {
        const wmr::serve::SubmitResult r = wmr::serve::queryStatus(addr);
        if (r.ok && r.response.ok()) {
            std::printf("%s\n", r.response.report.c_str());
            return 0;
        }
        if (Clock::now() >= deadline) {
            std::fprintf(stderr, "wmbench: status: %s\n",
                         r.ok ? r.response.meta.error.c_str()
                              : r.error.c_str());
            return 1;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
}

/** Closed-loop client connections of serve-load. */
constexpr unsigned kClients = 2;

/** Per-request record of the load client. */
struct RequestOutcome
{
    double latencyMs = 0;
    bool ok = false;
    bool cacheHit = false;
    std::string report;
};

int
cmdServeLoad(int argc, char **argv)
{
    if (argc < 8)
        return 2;
    wmr::serve::ServerAddress addr;
    std::string error;
    if (!wmr::serve::parseServerAddress(argv[2], addr, error)) {
        std::fprintf(stderr, "wmbench: %s\n", error.c_str());
        return 2;
    }
    const std::string refDir = argv[3];
    const double minSeconds = std::atof(argv[4]);
    const int minPasses = std::max(1, std::atoi(argv[5]));
    const int warmupPasses = std::max(0, std::atoi(argv[6]));

    std::vector<std::string> files(argv + 7, argv + argc);
    std::vector<std::vector<std::uint8_t>> uploads;
    std::vector<std::string> expected;
    for (const std::string &f : files) {
        const std::string bytes = readFile(f);
        uploads.emplace_back(bytes.begin(), bytes.end());
        expected.push_back(readFile(
            refDir + "/" + fs::path(f).filename().string() + ".txt"));
    }

    std::atomic<std::uint64_t> retries{0};
    std::vector<std::string> errors;
    std::mutex errorsMu;

    // One pass: every upload once, kClients closed loops pulling
    // the next upload from a shared cursor.
    const auto runPass = [&](std::vector<RequestOutcome> &outcomes) {
        outcomes.assign(uploads.size(), {});
        std::atomic<std::size_t> next{0};
        const auto loop = [&]() {
            wmr::serve::SubmitOptions opts;
            opts.maxAttempts = 1; // retries are counted here
            for (;;) {
                const std::size_t i = next.fetch_add(1);
                if (i >= uploads.size())
                    return;
                RequestOutcome &o = outcomes[i];
                const Clock::time_point t0 = Clock::now();
                for (int attempt = 0; attempt < 200; ++attempt) {
                    wmr::serve::SubmitResult sub =
                        wmr::serve::submitTraceBytes(addr, uploads[i],
                                                     opts);
                    const bool retriable =
                        sub.ok &&
                        (sub.response.status ==
                             wmr::serve::RespStatus::Overloaded ||
                         sub.response.status ==
                             wmr::serve::RespStatus::Draining);
                    if (retriable) {
                        retries.fetch_add(1);
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(std::max<
                                std::uint32_t>(
                                1, sub.response.retryAfterMs)));
                        continue;
                    }
                    if (sub.ok && sub.response.ok()) {
                        o.ok = true;
                        o.cacheHit = sub.response.cacheHit();
                        o.report = std::move(sub.response.report);
                    } else {
                        std::lock_guard<std::mutex> lk(errorsMu);
                        errors.push_back(
                            files[i] + ": " +
                            (sub.ok ? sub.response.meta.error
                                    : sub.error));
                    }
                    break;
                }
                o.latencyMs = 1e3 * secondsSince(t0);
            }
        };
        const Clock::time_point t0 = Clock::now();
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kClients; ++c)
            threads.emplace_back(loop);
        for (std::thread &t : threads)
            t.join();
        return secondsSince(t0);
    };

    std::vector<RequestOutcome> outcomes;
    std::uint64_t requests = 0, failed = 0, hits = 0, mismatches = 0;
    // Every reply is compared with the reference report after its
    // pass, outside the pass's timing; a differing reply is a failed
    // request.
    const auto tally = [&]() {
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            const RequestOutcome &o = outcomes[i];
            const bool wrong = o.ok && o.report != expected[i];
            if (wrong && mismatches++ < 5)
                errors.push_back(files[i] +
                                 ": reply differs from the reference");
            ++requests;
            failed += !o.ok || wrong;
            hits += o.cacheHit;
        }
    };
    for (int w = 0; w < warmupPasses; ++w) {
        runPass(outcomes);
        tally();
    }
    std::string passesJson;
    std::string latJson;
    double timed = 0;
    for (int pass = 0; pass < minPasses || timed < minSeconds; ++pass) {
        if (pass >= 1000)
            break;
        const double wall = runPass(outcomes);
        timed += wall;
        tally();
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%s%.9f", pass ? ", " : "",
                      wall);
        passesJson += buf;
        for (const RequestOutcome &o : outcomes) {
            std::snprintf(buf, sizeof(buf), "%s%.6f",
                          latJson.empty() ? "" : ", ", o.latencyMs);
            latJson += buf;
        }
    }
    std::printf("{\"requests\": %llu, \"failed\": %llu, \"retries\": "
                "%llu, \"cache_hits\": %llu, \"per_pass\": %zu, "
                "\"pass_seconds\": [%s], \"latency_ms\": [%s], "
                "\"errors\": [",
                static_cast<unsigned long long>(requests),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(retries.load()),
                static_cast<unsigned long long>(hits), uploads.size(),
                passesJson.c_str(), latJson.c_str());
    for (std::size_t i = 0; i < errors.size() && i < 5; ++i)
        std::printf("%s\"%s\"", i ? ", " : "",
                    wmr::jsonEscape(errors[i]).c_str());
    std::printf("]}\n");
    return 0;
}

/** Layer metrics of the traced run, printed as one JSON object. */
class LayerRun
{
  public:
    LayerRun(std::vector<TraceSpec> specs, const char *seed,
             std::string dir)
        : seed_(seed), dir_(std::move(dir)), layerDir_(dir_ + "/layers"),
          specs_(std::move(specs))
    {
        fs::create_directories(layerDir_ + "/gen");
    }

    int
    run(const std::string &spanFile)
    {
        generate();
        for (const TraceSpec &spec : specs_) {
            PathTimes pt;
            pt.file = spec.file;
            pt.whole = wholeTrace(tracePath(dir_, spec),
                                  layerDir_ + "/" + spec.file +
                                      ".check.txt");
            pt.stream = streamed(tracePath(dir_, spec),
                                 layerDir_ + "/" + spec.file +
                                     ".stream.txt");
            engines(tracePath(dir_, spec));
            paths_.push_back(pt);
        }
        pipeline();
        serveLayers();
        if (!rec_.writeChromeTrace(spanFile)) {
            std::fprintf(stderr, "wmbench: cannot write %s\n",
                         spanFile.c_str());
            return 1;
        }
        print();
        return 0;
    }

  private:
    using Scope = SpanRecorder::Scope;

    struct PathTimes
    {
        std::string file;
        double whole = 0;
        double stream = 0;
    };

    /** The workload's generator and simulator, each call in a span. */
    void
    generate()
    {
        std::vector<TraceSpec> sims;
        for (const TraceSpec &spec : specs_) {
            if (spec.synthetic) {
                Scope s(rec_, "workload.gen");
                writeTrace(spec, layerDir_ + "/gen/" + spec.file);
            } else {
                sims.push_back(spec);
            }
        }
        // Workloads without simulated traces time the simulator on a
        // sample of the corpus-serve program mix.
        if (sims.empty())
            sims = simulatedSample(parseSeed(seed_), 28);
        for (const TraceSpec &spec : sims) {
            wmr::ExecutionResult res;
            {
                Scope s(rec_, "sim.run");
                res = simulate(spec);
            }
            wmr::ExecutionTrace trace;
            {
                Scope s(rec_, "sim.trace_build");
                trace = wmr::buildTrace(res, {.keepMemberOps = true});
            }
            simEvents_ += static_cast<double>(trace.events().size());
            Scope s(rec_, "sim.write");
            wmr::writeSegmentedTraceFile(trace,
                                         layerDir_ + "/gen/" + spec.file);
        }
    }

    /** `wmrace check`: the whole-trace Section-4 pipeline. */
    double
    wholeTrace(const std::string &path, const std::string &out)
    {
        const Clock::time_point t0 = Clock::now();
        double traced = 0;
        {
            const int root = rec_.open("check");
            const double rss0 = residentBytes();
            wmr::TraceReadResult rr;
            {
                Scope s(rec_, "trace.read");
                rr = wmr::tryReadTraceFile(path);
            }
            residentMb_ =
                std::max(residentMb_, (residentBytes() - rss0) / 1e6);
            if (!rr.ok()) {
                fail(path + ": " + rr.error);
                rec_.close(root);
                return 0;
            }
            const wmr::ExecutionTrace &trace = rr.trace;
            const Clock::time_point a0 = Clock::now();
            std::unique_ptr<wmr::HbGraph> hb;
            {
                Scope s(rec_, "hb.graph");
                hb = std::make_unique<wmr::HbGraph>(trace);
            }
            std::unique_ptr<wmr::ReachabilityIndex> reach;
            {
                Scope s(rec_, "hb.reach");
                reach = std::make_unique<wmr::ReachabilityIndex>(
                    *hb, trace, 1);
            }
            std::vector<wmr::DataRace> races;
            wmr::RaceFinderStats fstats;
            {
                Scope s(rec_, "detect.races");
                races = wmr::findRaces(trace, *reach, {}, 1, &fstats);
            }
            candidates_ += static_cast<double>(fstats.candidatePairs);
            races_ += static_cast<double>(races.size());
            std::unique_ptr<wmr::AugmentedGraph> aug;
            {
                Scope s(rec_, "detect.augment");
                aug = std::make_unique<wmr::AugmentedGraph>(*hb, races,
                                                            trace, 1);
            }
            {
                Scope s(rec_, "detect.partition");
                wmr::partitionRaces(races, *aug);
            }
            {
                Scope s(rec_, "detect.scp");
                wmr::analyzeScp(trace, races, nullptr);
            }
            tracedAnalysis_ += secondsSince(a0);
            rec_.close(root);
        }
        traced += secondsSince(t0);

        // formatReport() renders a DetectionResult, which only the
        // one-call pipeline builds: rebuild it untraced.  Its own
        // stage clock is the untraced twin of the spans above.
        const wmr::DetectionResult det =
            wmr::analyzeTrace(wmr::tryReadTraceFile(path).trace);
        untracedAnalysis_ += det.stats().totalSeconds;

        const Clock::time_point t1 = Clock::now();
        {
            Scope root(rec_, "check.report");
            std::string text;
            {
                Scope s(rec_, "detect.render");
                text = wmr::formatTraceProvenance(true, {}) +
                       wmr::formatReport(det);
            }
            Scope s(rec_, "detect.write");
            if (!writeFile(out, text))
                fail("cannot write " + out);
            reports_.push_back(std::move(text));
        }
        return traced + secondsSince(t1);
    }

    /** `wmrace check --stream`: decode, analyze, render, write. */
    double
    streamed(const std::string &path, const std::string &out)
    {
        const Clock::time_point t0 = Clock::now();
        Scope root(rec_, "check_stream");
        wmr::SegmentTailReader tail;
        std::vector<wmr::SegTailSegment> segs;
        {
            Scope s(rec_, "trace.segment_scan");
            if (!tail.open(path)) {
                fail("cannot open " + path);
                return 0;
            }
            for (;;) {
                const wmr::TailPollStatus st = tail.poll(segs);
                if (st != wmr::TailPollStatus::Progress)
                    break;
            }
            if (!tail.finalize(true)) {
                fail(path + ": " + tail.error());
                return 0;
            }
        }
        wmr::StreamResult sr;
        {
            Scope s(rec_, "stream.analyze");
            wmr::StreamAnalyzer an;
            for (const wmr::SegTailSegment &seg : segs)
                an.addSegment(seg);
            sr = an.finish(tail.finSeen(), tail.fin(), tail.salvage());
        }
        if (!sr.ok) {
            fail(path + ": " + sr.error);
            return 0;
        }
        peakResident_ = std::max(peakResident_,
                                 static_cast<double>(sr.peakResident));
        std::string text;
        {
            Scope s(rec_, "stream.render");
            text = wmr::formatTraceProvenance(true, sr.salvage) +
                   wmr::renderReport(sr.report, nullptr, {});
        }
        Scope s(rec_, "stream.write");
        if (!writeFile(out, text))
            fail("cannot write " + out);
        return secondsSince(t0);
    }

    /** Each detector engine alone, then all six in one pass. */
    void
    engines(const std::string &path)
    {
        const wmr::TraceReadResult rr = wmr::tryReadTraceFile(path);
        if (!rr.ok()) {
            fail(path + ": " + rr.error);
            return;
        }
        using wmr::engines::EngineKind;
        const std::pair<EngineKind, const char *> kinds[] = {
            {EngineKind::Hb1, "engines.hb1"},
            {EngineKind::Shb, "engines.shb"},
            {EngineKind::Wcp, "engines.wcp"},
            {EngineKind::Vc, "engines.vc"},
            {EngineKind::Epoch, "engines.epoch"},
            {EngineKind::Lockset, "engines.lockset"},
        };
        wmr::engines::EngineFamilyOptions all;
        for (const auto &[kind, name] : kinds) {
            wmr::engines::EngineFamilyOptions one;
            one.kinds = {kind};
            all.kinds.push_back(kind);
            Scope s(rec_, name);
            wmr::engines::runEngineFamily(rr.trace, one);
        }
        wmr::engines::EngineFamilyResult fam;
        {
            Scope s(rec_, "engines.family");
            fam = wmr::engines::runEngineFamily(rr.trace, all);
        }
        Scope s(rec_, "engines.format");
        if (wmr::engines::formatFamilyReport(fam).empty())
            fail(path + ": empty detector family report");
    }

    /** `wmrace batch --jobs 2`: corpus scan, then runBatch. */
    void
    pipeline()
    {
        wmr::CorpusScan corpus;
        {
            Scope s(rec_, "pipeline.scan");
            corpus = wmr::scanCorpus(dir_ + "/traces");
        }
        wmr::BatchOptions opts;
        opts.jobs = 2;
        Scope s(rec_, "pipeline.batch");
        const wmr::BatchResult res = wmr::runBatch(corpus, opts);
        if (res.numFailed() != 0)
            fail("runBatch failed on " +
                 std::to_string(res.numFailed()) + " trace(s)");
    }

    /** The serve request path's client framing, content hash and
     *  result cache over the workload's uploads and results. */
    void
    serveLayers()
    {
        std::vector<std::vector<std::uint8_t>> uploads;
        for (const TraceSpec &spec : specs_) {
            const std::string bytes = readFile(tracePath(dir_, spec));
            uploads.emplace_back(bytes.begin(), bytes.end());
        }
        constexpr int kPasses = 5;
        for (int pass = 0; pass < kPasses; ++pass) {
            std::size_t framed = 0;
            {
                Scope s(rec_, "serve.encode");
                for (const auto &u : uploads) {
                    wmr::serve::Request req;
                    req.body = u;
                    framed += wmr::serve::encodeRequestFrame(req).size();
                }
            }
            std::vector<wmr::serve::CacheKey> keys;
            {
                Scope s(rec_, "serve.hash");
                for (const auto &u : uploads)
                    keys.push_back(
                        {wmr::contentHash64(u.data(), u.size()),
                         u.size(), 0});
            }
            Scope s(rec_, "serve.cache");
            wmr::serve::ResultCache cache(std::uint64_t(4) << 30);
            for (std::size_t i = 0; i < keys.size(); ++i) {
                wmr::serve::CachedResult r;
                r.report = i < reports_.size() ? reports_[i] : "";
                cache.put(keys[i], r);
            }
            wmr::serve::CachedResult got;
            for (const auto &k : keys) {
                if (!cache.get(k, got))
                    fail("result cache lost an entry");
            }
            if (framed == 0)
                fail("no uploads framed");
        }
        servePasses_ = kPasses;
    }

    void
    fail(const std::string &why)
    {
        std::fprintf(stderr, "wmbench layers: %s\n", why.c_str());
        failed_ = true;
    }

    void
    print()
    {
        const std::map<std::string, double> self = rec_.selfSeconds();
        const auto get = [&](const char *name) {
            const auto it = self.find(name);
            return it == self.end() ? 0.0 : it->second;
        };
        std::map<std::string, double> m;
        m["workload.gen_s"] = get("workload.gen");
        m["sim.run_s"] = get("sim.run");
        m["sim.events_per_s"] =
            get("sim.run") > 0 ? simEvents_ / get("sim.run") : 0;
        m["trace.read_s"] = get("trace.read");
        m["trace.resident_mb"] = residentMb_;
        m["trace.segment_scan_s"] = get("trace.segment_scan");
        m["hb.graph_s"] = get("hb.graph");
        m["hb.reach_s"] = get("hb.reach");
        m["detect.races_s"] = get("detect.races");
        m["detect.candidates"] = candidates_;
        m["detect.race_yield"] =
            candidates_ > 0 ? races_ / candidates_ : 0;
        m["detect.augment_s"] = get("detect.augment");
        m["detect.partition_s"] = get("detect.partition");
        m["detect.scp_s"] = get("detect.scp");
        m["detect.render_s"] = get("detect.render");
        m["detect.write_s"] = get("detect.write");
        m["stream.analyze_s"] = get("stream.analyze");
        m["stream.render_s"] = get("stream.render");
        m["stream.write_s"] = get("stream.write");
        m["stream.peak_resident_events"] = peakResident_;
        for (const char *e :
             {"hb1", "shb", "wcp", "vc", "epoch", "lockset", "family",
              "format"}) {
            m[std::string("engines.") + e + "_s"] =
                get(("engines." + std::string(e)).c_str());
        }
        m["pipeline.scan_s"] = get("pipeline.scan");
        m["pipeline.batch_s"] = get("pipeline.batch");
        m["serve.encode_s"] = get("serve.encode") / servePasses_;
        m["serve.hash_s"] = get("serve.hash") / servePasses_;
        m["serve.cache_s"] = get("serve.cache") / servePasses_;
        m["bench.span_overhead"] =
            untracedAnalysis_ > 0 ? tracedAnalysis_ / untracedAnalysis_
                                  : 0;

        std::printf("{\"ok\": %s, \"metrics\": {",
                    failed_ ? "false" : "true");
        bool first = true;
        for (const auto &[name, value] : m) {
            std::printf("%s\"%s\": %.9g", first ? "" : ", ",
                        name.c_str(), value);
            first = false;
        }
        std::printf("}, \"paths\": [");
        for (std::size_t i = 0; i < paths_.size(); ++i) {
            std::printf("%s{\"file\": \"traces/%s\", \"whole_s\": %.9f, "
                        "\"stream_s\": %.9f}",
                        i ? ", " : "", paths_[i].file.c_str(),
                        paths_[i].whole, paths_[i].stream);
        }
        std::printf("]}\n");
    }

    const char *seed_;
    std::string dir_;
    std::string layerDir_;
    std::vector<TraceSpec> specs_;
    SpanRecorder rec_;
    std::vector<PathTimes> paths_;
    std::vector<std::string> reports_;
    double simEvents_ = 0;
    double residentMb_ = 0;
    double candidates_ = 0;
    double races_ = 0;
    double peakResident_ = 0;
    double tracedAnalysis_ = 0;
    double untracedAnalysis_ = 0;
    int servePasses_ = 1;
    bool failed_ = false;
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: wmbench selftest | draw <workload> <seed> | "
                 "gen|oracle <workload> <seed> <dir> [<drawn>...] | "
                 "serve-ctl <socket> wait|status|shutdown | serve-load "
                 "<socket> <refdir> <min-seconds> <min-passes> "
                 "<warmup-passes> <trace>... | layers <workload> <seed> "
                 "<dir> <span-file> [<drawn>...]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    if (cmd == "selftest") {
        const std::string err = oracleSelfTest();
        if (!err.empty()) {
            std::fprintf(stderr, "oracle self-test: %s\n", err.c_str());
            return 1;
        }
        return 0;
    }
    if (cmd == "draw" && argc == 4)
        return cmdDraw(argv[2], argv[3]);
    if ((cmd == "gen" || cmd == "oracle") && argc >= 5) {
        const auto specs = specsOrDie(argv[2], argv[3], argv + 5,
                                      argv + argc);
        return cmd == "gen" ? cmdGen(specs, argv[4])
                            : cmdOracle(specs, argv[4]);
    }
    if (cmd == "serve-ctl" && argc == 4)
        return cmdServeCtl(argv[2], argv[3]);
    if (cmd == "serve-load")
        return cmdServeLoad(argc, argv);
    if (cmd == "layers" && argc >= 6) {
        return LayerRun(specsOrDie(argv[2], argv[3], argv + 6,
                                   argv + argc),
                        argv[3], argv[4])
            .run(argv[5]);
    }
    return usage();
}
