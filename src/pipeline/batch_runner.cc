#include "pipeline/batch_runner.hh"

#include <atomic>
#include <chrono>
#include <mutex>
#include <unordered_map>

#include "common/logging.hh"
#include "common/worker_pool.hh"
#include "obs/obs.hh"
#include "pipeline/checkpoint.hh"
#include "pipeline/work_queue.hh"

namespace wmr {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

/** Analyze one corpus trace.  Never renders: on race-dense traces
 *  the report text costs more than finding the races. */
AnalysisOutcome
analyzeOneTrace(const std::string &path, const BatchOptions &opts)
{
    obs::Span traceSpan("batch.trace");
    traceSpan.annotate(path);
    AnalysisRequest req;
    req.path = path;
    req.salvage = opts.salvage;
    req.engines = opts.engineKinds;
    req.stream = opts.stream;
    req.window = opts.streamWindow;
    req.analysis = opts.analysis;
    req.spans = {"batch.read", "batch.parse", "batch.analyze"};
    return runAnalysisRequest(req);
}

/** Fold one trace's stage timings into @p m (worker-seconds). */
void
addStageTimes(const AnalysisOutcome &res, BatchMetrics &m)
{
    m.stageTotal.read += res.stages.read;
    m.stageTotal.parse += res.stages.parse;
    m.stageTotal.analyze += res.stages.analyze;
    const AnalysisStats &as = res.analysis;
    m.analysisStages.graphBuild += as.graphBuildSeconds;
    m.analysisStages.reachability += as.reachabilitySeconds;
    m.analysisStages.raceFind += as.raceFindSeconds;
    m.analysisStages.augment += as.augmentSeconds;
    m.analysisStages.partition += as.partitionSeconds;
    m.analysisStages.scp += as.scpSeconds;
    m.candidatePairs += as.finder.candidatePairs;
    m.reachQueries += as.finder.reachQueries;
}

} // namespace

void
tallyOutcomes(BatchResult &batch)
{
    BatchMetrics &m = batch.metrics;
    for (const TraceRunResult &t : batch.traces) {
        m.bytesRead += t.fileBytes;
        if (t.ok()) {
            ++m.analyzed;
            if (t.salvaged)
                ++m.salvaged;
        } else if (t.failed()) {
            ++m.failed;
        } else {
            ++m.skipped;
        }
    }
}

bool
BatchResult::anyDataRace() const
{
    for (const auto &t : traces) {
        if (t.ok() && t.anyDataRace)
            return true;
    }
    return false;
}

std::size_t
BatchResult::numFailed() const
{
    std::size_t n = 0;
    for (const auto &t : traces) {
        if (t.failed())
            ++n;
    }
    return n;
}

BatchResult
runBatch(const CorpusScan &corpus, const BatchOptions &opts)
{
    BatchResult result;
    result.corpus = corpus;

    const std::size_t n = corpus.files.size();
    const unsigned budget = resolveThreads(opts.jobs);

    // Split the thread budget: one worker per trace up to the corpus
    // size, and when the corpus is smaller than the budget, spend the
    // leftover INSIDE each analysis (intra-trace parallelism) instead
    // of idling.  An explicit AnalysisOptions::threads wins.
    unsigned jobs = budget;
    if (jobs > n && n > 0)
        jobs = static_cast<unsigned>(n);
    BatchOptions effective = opts;
    if (effective.analysis.threads == 1 && jobs > 0)
        effective.analysis.threads = std::max(1u, budget / jobs);
    effective.analysis.threads =
        resolveThreads(effective.analysis.threads);

    result.traces.resize(n);
    result.metrics.jobs = jobs;
    result.metrics.analysisThreads = effective.analysis.threads;
    result.metrics.corpusTraces = n;
    if (n == 0)
        return result;

    // Resume: prefill result slots journaled by a previous run over
    // this corpus, then keep journaling the rest as they complete.
    // The journal is an optimization — any problem with it degrades
    // to re-analyzing traces, never to wrong results.
    std::vector<char> done(n, 0);
    bool priorFailure = false;
    CheckpointWriter journal;
    bool journaling = false;
    if (!opts.checkpointPath.empty()) {
        std::unordered_map<std::string, std::size_t> slotByPath;
        slotByPath.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            slotByPath.emplace(corpus.files[i], i);
        const CheckpointLoad prior =
            loadCheckpoint(opts.checkpointPath);
        if (prior.tornLines > 0)
            warn("batch: checkpoint '%s': ignoring %zu torn or "
                 "foreign line(s)",
                 opts.checkpointPath.c_str(), prior.tornLines);
        for (const auto &entry : prior.entries) {
            const auto it = slotByPath.find(entry.path);
            if (it == slotByPath.end() || done[it->second])
                continue; // journaled under a different corpus
            result.traces[it->second] = entry;
            done[it->second] = 1;
            priorFailure |= entry.failed();
            ++result.metrics.resumed;
        }
        if (journal.open(opts.checkpointPath))
            journaling = true;
        else
            warn("batch: checkpoint journaling disabled: %s",
                 journal.lastError().c_str());
    }

    const auto wallStart = Clock::now();

    // Producer -> workers hand-off.  The bound keeps the backlog (and
    // so the peak-depth metric) meaningful without ever stalling the
    // workers: a few slots of slack per worker.
    WorkQueue<std::size_t> queue(static_cast<std::size_t>(jobs) * 4);
    std::atomic<bool> abortDispatch{priorFailure};
    std::atomic<bool> journalWarned{false};

    std::mutex metricsMutex;

    const auto workerBody = [&](unsigned worker) {
        obs::setThreadName("batch.worker." + std::to_string(worker));
        obs::Span workerSpan("batch.worker");
        std::size_t index = 0;
        while (queue.pop(index)) {
            TraceRunResult &slot = result.traces[index];
            if (opts.failFast &&
                abortDispatch.load(std::memory_order_relaxed)) {
                slot.path = corpus.files[index];
                slot.status = TraceRunStatus::Skipped;
                slot.error = "--fail-fast after an earlier failure";
                continue;
            }
            AnalysisOutcome res =
                analyzeOneTrace(corpus.files[index], effective);
            slot = std::move(res.result);
            {
                std::lock_guard<std::mutex> lock(metricsMutex);
                addStageTimes(res, result.metrics);
            }
            if (slot.failed())
                abortDispatch.store(true,
                                    std::memory_order_relaxed);
            if (journaling && !journal.append(slot) &&
                !journalWarned.exchange(true))
                warn("batch: checkpoint journaling failed: %s",
                     journal.lastError().c_str());
        }
    };

    {
        WorkerPool pool(jobs, workerBody);
        for (std::size_t i = 0; i < n; ++i) {
            if (done[i])
                continue; // resumed from the checkpoint journal
            if (opts.failFast &&
                abortDispatch.load(std::memory_order_relaxed)) {
                // Mark everything not yet dispatched as skipped; the
                // producer owns these slots until they are pushed.
                TraceRunResult &slot = result.traces[i];
                slot.path = corpus.files[i];
                slot.status = TraceRunStatus::Skipped;
                slot.error = "--fail-fast after an earlier failure";
                continue;
            }
            queue.push(i);
        }
        queue.close();
        pool.join();
    }

    result.metrics.wallSeconds = secondsSince(wallStart);
    result.metrics.peakQueueDepth = queue.peakDepth();
    tallyOutcomes(result);

    // Publish the batch into the shared registry alongside the
    // analysis.* and rt.* series; the JSON report keeps its own
    // schema-stable copy of these numbers.
    obs::counter("batch.traces").add(result.metrics.corpusTraces);
    obs::counter("batch.analyzed").add(result.metrics.analyzed);
    obs::counter("batch.failed").add(result.metrics.failed);
    obs::counter("batch.salvaged").add(result.metrics.salvaged);
    obs::counter("batch.bytes_read").add(result.metrics.bytesRead);
    obs::gauge("batch.jobs").set(result.metrics.jobs);
    obs::gauge("batch.peak_queue_depth")
        .set(result.metrics.peakQueueDepth);
    return result;
}

} // namespace wmr
