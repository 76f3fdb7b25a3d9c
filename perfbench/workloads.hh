/**
 * @file
 * The benchmark's workloads: which traces each one holds, made from
 * the run's seed alone.
 *
 *  - dense-races: two short synthetic traces on a small hot word
 *    set.  Race enumeration, G', partitioning and report render and
 *    write do most of the work.
 *  - sparse-long: one long synthetic trace over a wide address
 *    universe with few races.  Decode, event materialisation, hb1
 *    clocks and the candidate filter do most of the work.
 *  - corpus-serve: a few hundred small traces from simulating
 *    generated programs on every memory model and realisation, plus
 *    a few medium synthetic traces.  Per-trace fixed costs dominate.
 */

#ifndef WMBENCH_WORKLOADS_HH
#define WMBENCH_WORKLOADS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/executor.hh"
#include "trace/execution_trace.hh"
#include "workload/synthetic_trace.hh"

namespace wmbench {

/** One trace of a workload and how to make it. */
struct TraceSpec
{
    /** File name inside the workload's trace directory. */
    std::string file;

    /** Synthetic trace (else a simulated program execution). */
    bool synthetic = true;
    wmr::SyntheticTraceOptions syn;

    // Simulated traces: program, model, realisation, schedule seed.
    std::uint64_t programSeed = 0;
    bool raceFreeProgram = true;
    wmr::ModelKind model = wmr::ModelKind::SC;
    wmr::Realization realization = wmr::Realization::StoreBuffer;
    std::uint64_t execSeed = 1;
};

/**
 * The sub-seeds workload @p name draws its traces from at @p seed:
 * for dense-races, one per trace, each the one of eight candidates
 * whose race count (by the oracle) is nearest the target; empty for
 * the other workloads.  The draw is the benchmark choosing its
 * inputs, so it stays outside the timed set-up.
 */
std::vector<std::uint64_t> drawSeeds(const std::string &name,
                                     std::uint64_t seed);

/** @return the traces of workload @p name at @p seed with the
 *  sub-seeds @p drawn by drawSeeds(), or nullopt when the name is
 *  unknown or @p drawn does not fit it. */
std::optional<std::vector<TraceSpec>>
workloadTraces(const std::string &name, std::uint64_t seed,
               const std::vector<std::uint64_t> &drawn);

/** @return the simulated executions of the corpus-serve program mix
 *  at @p seed, at most @p limit of them. */
std::vector<TraceSpec> simulatedSample(std::uint64_t seed,
                                       std::size_t limit);

/** Simulate @p spec (a non-synthetic spec). */
wmr::ExecutionResult simulate(const TraceSpec &spec);

/** @return the in-memory trace of @p spec. */
wmr::ExecutionTrace makeTrace(const TraceSpec &spec);

/** Write @p spec's trace to @p path as a segmented file.
 *  @return bytes written (0 on failure). */
std::size_t writeTrace(const TraceSpec &spec, const std::string &path);

} // namespace wmbench

#endif // WMBENCH_WORKLOADS_HH
