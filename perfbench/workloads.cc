#include "workloads.hh"

#include <cstdio>

#include "oracle.hh"
#include "sim/model.hh"
#include "trace/segmented_io.hh"
#include "workload/random_gen.hh"

namespace wmbench {

namespace {

/** splitmix64: independent sub-seeds from the run's one seed. */
std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t k)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + k + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::string
padded(std::size_t i)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%03zu", i);
    return buf;
}

/** Generated programs of the corpus-serve mix: half race-free by
 *  construction, half racy. */
constexpr std::size_t kCorpusPrograms = 16;

std::vector<TraceSpec>
corpusSimulated(std::uint64_t seed)
{
    std::vector<TraceSpec> out;
    for (std::size_t i = 0; i < kCorpusPrograms; ++i) {
        for (const wmr::ModelKind model : wmr::kAllModels) {
            for (const wmr::Realization real : wmr::kAllRealizations) {
                TraceSpec s;
                s.synthetic = false;
                s.programSeed = subSeed(seed, 1000 + i);
                s.raceFreeProgram = i % 2 == 0;
                s.model = model;
                s.realization = real;
                s.execSeed = subSeed(seed, 5000 + out.size());
                s.file = "sim" + padded(out.size()) + "-" +
                         (s.raceFreeProgram ? "drf-" : "racy-") +
                         std::string(wmr::modelName(model)) + "-" +
                         std::string(wmr::realizationName(real)) +
                         ".trace";
                out.push_back(std::move(s));
            }
        }
    }
    return out;
}

/** Traces of dense-races, and the race count its draw aims at per
 *  trace. */
constexpr std::size_t kDenseTraces = 2;
constexpr std::uint64_t kDenseRaces = 74000;

/** The dense-races trace shape: a hot word set on four processors. */
wmr::SyntheticTraceOptions
denseOptions()
{
    wmr::SyntheticTraceOptions o;
    o.procs = 4;
    o.eventsPerProc = 390;
    o.memWords = 256;
    o.hotFraction = 0.35;
    o.maxReads = 8;
    o.maxWrites = 4;
    return o;
}

} // namespace

std::vector<std::uint64_t>
drawSeeds(const std::string &name, std::uint64_t seed)
{
    std::vector<std::uint64_t> drawn;
    if (name != "dense-races")
        return drawn;
    // The race count of the dense shape varies by ±20% with the seed,
    // and the report size and the cost of every stage with it; served
    // hits even change regime with the reply size.  Of eight sub-seeds
    // per trace, keep the one whose race count is nearest kDenseRaces,
    // so every seed gives about the same work.
    wmr::SyntheticTraceOptions o = denseOptions();
    for (std::uint64_t i = 0; i < kDenseTraces; ++i) {
        std::uint64_t best = 0, bestDistance = UINT64_MAX;
        for (std::uint64_t draw = 0; draw < 8; ++draw) {
            o.seed = subSeed(seed, 1000 * (i + 1) + draw);
            const std::uint64_t races =
                oracleRaces(wmr::makeSyntheticTrace(o)).dataRaces;
            const std::uint64_t distance =
                races > kDenseRaces ? races - kDenseRaces : kDenseRaces - races;
            if (distance < bestDistance) {
                bestDistance = distance;
                best = o.seed;
            }
        }
        drawn.push_back(best);
    }
    return drawn;
}

std::optional<std::vector<TraceSpec>>
workloadTraces(const std::string &name, std::uint64_t seed,
               const std::vector<std::uint64_t> &drawn)
{
    std::vector<TraceSpec> out;
    const auto synth = [&](wmr::SyntheticTraceOptions o,
                           const std::string &stem) {
        TraceSpec s;
        o.seed = subSeed(seed, out.size());
        s.syn = o;
        s.file = stem + padded(out.size()) + ".trace";
        out.push_back(std::move(s));
    };

    if (name == "dense-races") {
        if (drawn.size() != kDenseTraces)
            return std::nullopt;
        for (std::size_t i = 0; i < drawn.size(); ++i) {
            TraceSpec s;
            s.syn = denseOptions();
            s.syn.seed = drawn[i];
            s.file = "dense" + padded(i) + ".trace";
            out.push_back(std::move(s));
        }
    } else if (name == "sparse-long") {
        wmr::SyntheticTraceOptions o;
        o.procs = 4;
        o.eventsPerProc = 18750;
        o.memWords = 8192;
        o.hotFraction = 0;
        synth(o, "sparse");
    } else if (name == "corpus-serve") {
        out = corpusSimulated(seed);
        wmr::SyntheticTraceOptions o;
        o.procs = 4;
        o.eventsPerProc = 500;
        o.memWords = 1024;
        o.hotFraction = 0.05;
        for (int i = 0; i < 4; ++i)
            synth(o, "medium");
    } else {
        return std::nullopt;
    }
    return out;
}

std::vector<TraceSpec>
simulatedSample(std::uint64_t seed, std::size_t limit)
{
    std::vector<TraceSpec> all = corpusSimulated(seed);
    if (all.size() > limit)
        all.resize(limit);
    return all;
}

wmr::ExecutionResult
simulate(const TraceSpec &spec)
{
    const wmr::Program prog =
        spec.raceFreeProgram
            ? wmr::randomRaceFreeProgram(spec.programSeed)
            : wmr::randomRacyProgram(spec.programSeed);
    wmr::ExecOptions opts;
    opts.model = spec.model;
    opts.realization = spec.realization;
    opts.seed = spec.execSeed;
    return wmr::runProgram(prog, opts);
}

wmr::ExecutionTrace
makeTrace(const TraceSpec &spec)
{
    if (spec.synthetic)
        return wmr::makeSyntheticTrace(spec.syn);
    return wmr::buildTrace(simulate(spec), {.keepMemberOps = true});
}

std::size_t
writeTrace(const TraceSpec &spec, const std::string &path)
{
    if (spec.synthetic)
        return wmr::writeSyntheticSegmentedTraceFile(spec.syn, path);
    return wmr::writeSegmentedTraceFile(makeTrace(spec), path);
}

} // namespace wmbench
