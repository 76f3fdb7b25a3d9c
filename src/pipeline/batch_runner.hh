/**
 * @file
 * The batch analysis engine: run the full Section-4 post-mortem
 * method (hb1 graph -> G' -> partitions -> first partitions) over a
 * whole corpus of trace files on a pool of worker threads.
 *
 * Guarantees:
 *  - GRACEFUL DEGRADATION: a corrupt, truncated or unreadable trace
 *    becomes a per-trace failure with its reason; the batch keeps
 *    going (unless --fail-fast was requested).
 *  - DETERMINISM: per-trace results land in corpus order regardless
 *    of worker count or scheduling, so the aggregated report is
 *    byte-identical for --jobs 1 and --jobs N.  (Timing lives in
 *    BatchMetrics, which is nondeterministic by nature and kept out
 *    of the report.)
 *  - RESUMABILITY: with a checkpoint journal (BatchOptions::
 *    checkpointPath) a run killed halfway resumes without
 *    re-analyzing completed traces, and the resumed report is
 *    byte-identical to an uninterrupted run's.
 *
 * Each trace goes through runAnalysisRequest() (analysis_request.hh),
 * the path `check` and `serve` use too.  It is reentrant — it keeps
 * all state inside the outcome being built and touches no global
 * mutable data — so workers need no locking around it; the pipeline's
 * only shared state is the work queue and the result slots (disjoint
 * per trace).
 */

#ifndef WMR_PIPELINE_BATCH_RUNNER_HH
#define WMR_PIPELINE_BATCH_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "detect/analysis.hh"
#include "pipeline/analysis_request.hh"
#include "pipeline/metrics.hh"
#include "pipeline/trace_corpus.hh"

namespace wmr {

/** Knobs of one batch run. */
struct BatchOptions
{
    /**
     * Total worker-thread budget; 0 = hardware concurrency.  One
     * worker analyzes each trace; when the corpus has fewer traces
     * than the budget, the leftover becomes intra-trace analysis
     * threads (AnalysisOptions::threads, unless set explicitly).
     */
    unsigned jobs = 0;

    /** Stop dispatching new traces after the first failure. */
    bool failFast = false;

    /**
     * Recover the valid prefix of damaged segmented traces instead
     * of failing them (the per-trace analogue of
     * `wmrace check --salvage`).  A salvage that recovers nothing is
     * still a failure, so poison files land in the quarantine.
     */
    bool salvage = false;

    /**
     * Analyze segmented traces with the bounded-memory streaming
     * engine (src/stream/) instead of materializing them.  Results
     * are identical; per-trace memory is O(window) instead of
     * O(trace), so corpora of huge traces fit.  EVENT-format traces
     * cannot stream and keep the whole-trace path.
     */
    bool stream = false;

    /** Streaming GC window, in segments (see StreamOptions). */
    std::size_t streamWindow = 4;

    /**
     * Append-only resume journal ("" = disabled): completed traces
     * found in it are prefilled, not re-analyzed, and every newly
     * completed trace is journaled as it finishes — so a batch run
     * killed halfway resumes where it stopped.  See checkpoint.hh.
     */
    std::string checkpointPath;

    /** Detector options applied to every trace. */
    AnalysisOptions analysis;

    /**
     * Detector-engine selection (`batch --engine`): empty keeps the
     * canonical hb1 path; otherwise every trace runs the engine
     * family (engines/family.hh): races/dataRaces then come from the
     * weakest (superset) chain engine that ran, partitions from hb1.
     * Chain engines only (hb1/shb/wcp); incompatible with stream
     * (wcp needs whole-trace state).
     */
    std::vector<engines::EngineKind> engineKinds;
};

/** Everything one batch run produced. */
struct BatchResult
{
    /** The corpus that was analyzed (order = report order). */
    CorpusScan corpus;

    /** Per-trace outcomes, in corpus order. */
    std::vector<TraceRunResult> traces;

    /** Timing/shape metrics (nondeterministic; not in the report). */
    BatchMetrics metrics;

    /** @return whether any analyzed trace had a data race. */
    bool anyDataRace() const;

    /** @return number of traces that failed to load/parse. */
    std::size_t numFailed() const;
};

/** Count @p batch's per-trace outcomes (analyzed, failed, skipped,
 *  salvaged, bytes read) into its metrics. */
void tallyOutcomes(BatchResult &batch);

/**
 * Analyze every trace of @p corpus per @p opts.  The corpus must be
 * ok(); pass the result of scanCorpus() or a hand-built file list.
 */
BatchResult runBatch(const CorpusScan &corpus,
                     const BatchOptions &opts = {});

} // namespace wmr

#endif // WMR_PIPELINE_BATCH_RUNNER_HH
