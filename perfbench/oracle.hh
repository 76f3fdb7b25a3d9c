/**
 * @file
 * Independent race oracle of the benchmark.
 *
 * One vector-clock pass over an in-memory ExecutionTrace computes the
 * data races the Section-4 method must find: pairs of events on
 * different processors that access a common word, at least one of
 * them writing it, that hb1 = (po ∪ so1)+ does not order.  A pair
 * counts once however many words it conflicts on, and sync-sync
 * pairs are left out, as the program does by default.
 *
 * The oracle reads only the trace data structure.  It shares no code
 * with the program's hb/, detect/, stream/ or engines/ layers, so a
 * fault there cannot hide in the reference the benchmark checks
 * against.
 */

#ifndef WMBENCH_ORACLE_HH
#define WMBENCH_ORACLE_HH

#include <cstdint>
#include <string>

#include "trace/execution_trace.hh"

namespace wmbench {

/** What the oracle concluded about one trace. */
struct OracleVerdict
{
    /** False when the trace has an hb1 cycle the pass cannot order. */
    bool ok = false;
    std::string error;

    /** Distinct racing event pairs with at least one data access. */
    std::uint64_t dataRaces = 0;

    bool anyDataRace() const { return dataRaces != 0; }
};

/** Run the oracle over @p trace. */
OracleVerdict oracleRaces(const wmr::ExecutionTrace &trace);

/**
 * Check the oracle on the hand-built traces whose races the
 * benchmark README derives by hand.  @return an empty string when
 * every case matches, else a description of the first mismatch.
 */
std::string oracleSelfTest();

} // namespace wmbench

#endif // WMBENCH_ORACLE_HH
