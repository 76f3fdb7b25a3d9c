#include "oracle.hh"

#include <algorithm>
#include <deque>
#include <initializer_list>
#include <vector>

namespace wmbench {

using wmr::Addr;
using wmr::Event;
using wmr::EventId;
using wmr::EventKind;
using wmr::ExecutionTrace;
using wmr::ProcId;

namespace {

/** One access of an event to one word. */
struct Access
{
    std::uint32_t indexInProc = 0;
    EventId id = wmr::kNoEvent;
    bool writes = false;
    bool sync = false;
};

/** The words @p ev touches, each with whether it writes it. */
std::vector<std::pair<Addr, bool>>
accessesOf(const Event &ev)
{
    std::vector<std::pair<Addr, bool>> out;
    if (ev.kind == EventKind::Sync) {
        out.emplace_back(ev.syncOp.addr,
                         ev.syncOp.kind == wmr::OpKind::Write);
        return out;
    }
    ev.writeSet.forEach(
        [&](std::size_t a) { out.emplace_back(Addr(a), true); });
    ev.readSet.forEach([&](std::size_t a) {
        if (!ev.writeSet.test(a))
            out.emplace_back(Addr(a), false);
    });
    return out;
}

} // namespace

OracleVerdict
oracleRaces(const ExecutionTrace &trace)
{
    OracleVerdict v;
    const std::vector<Event> &events = trace.events();
    const std::size_t n = events.size();
    const std::size_t procs = trace.numProcs();

    // hb1 successors: the next event of the same processor (po) and
    // every acquire that read a release (so1).
    std::vector<std::vector<EventId>> so1(n);
    std::vector<std::uint32_t> preds(n, 0);
    for (const Event &ev : events) {
        if (ev.indexInProc != 0)
            ++preds[ev.id];
        if (ev.kind == EventKind::Sync &&
            ev.pairedRelease != wmr::kNoEvent) {
            so1[ev.pairedRelease].push_back(ev.id);
            ++preds[ev.id];
        }
    }

    // Vector clocks in a topological order of po ∪ so1: entry q of
    // an event's clock counts the events of processor q that hb1
    // orders before it (itself included on its own processor).
    std::vector<std::uint32_t> clock(n * procs, 0);
    std::deque<EventId> ready;
    for (EventId e = 0; e < n; ++e) {
        if (preds[e] == 0)
            ready.push_back(e);
    }
    const auto pushTo = [&](EventId from, EventId to) {
        for (std::size_t q = 0; q < procs; ++q) {
            clock[to * procs + q] =
                std::max(clock[to * procs + q], clock[from * procs + q]);
        }
        if (--preds[to] == 0)
            ready.push_back(to);
    };
    std::size_t ordered = 0;
    while (!ready.empty()) {
        const EventId e = ready.front();
        ready.pop_front();
        ++ordered;
        const Event &ev = events[e];
        clock[e * procs + ev.proc] = ev.indexInProc + 1;
        const auto &seq = trace.procEvents(ev.proc);
        if (ev.indexInProc + 1 < seq.size())
            pushTo(e, seq[ev.indexInProc + 1]);
        for (const EventId acq : so1[e])
            pushTo(e, acq);
    }
    if (ordered != n) {
        v.error = "hb1 has a cycle; the oracle needs a partial order";
        return v;
    }

    // Per processor and word, that processor's accesses in program
    // order.
    Addr words = trace.memWords();
    for (const Event &ev : events) {
        words = std::max<Addr>(
            words, ev.kind == EventKind::Sync
                       ? ev.syncOp.addr + 1
                       : Addr(std::max(ev.readSet.size(),
                                       ev.writeSet.size())));
    }
    std::vector<std::vector<Access>> byProcWord(procs * words);
    for (ProcId q = 0; q < procs; ++q) {
        for (const EventId e : trace.procEvents(q)) {
            const Event &ev = events[e];
            for (const auto &[a, w] : accessesOf(ev)) {
                byProcWord[q * words + a].push_back(
                    {ev.indexInProc, e, w,
                     ev.kind == EventKind::Sync});
            }
        }
    }

    // Count each unordered pair once, from the event on the higher
    // processor.  The events of q that hb1 orders neither before nor
    // after y form one contiguous run of q's program order: from
    // clock(y)[q] up to the first event whose clock covers y.
    std::vector<EventId> seenBy(n, wmr::kNoEvent);
    for (ProcId p = 1; p < procs; ++p) {
        for (const EventId y : trace.procEvents(p)) {
            const Event &ey = events[y];
            const auto mine = accessesOf(ey);
            const bool ySync = ey.kind == EventKind::Sync;
            for (ProcId q = 0; q < p; ++q) {
                const auto &seqQ = trace.procEvents(q);
                const std::uint32_t lo = clock[y * procs + q];
                const auto hiIt = std::partition_point(
                    seqQ.begin() + lo, seqQ.end(), [&](EventId x) {
                        return clock[x * procs + p] <= ey.indexInProc;
                    });
                const auto hi =
                    static_cast<std::uint32_t>(hiIt - seqQ.begin());
                if (lo >= hi)
                    continue;
                for (const auto &[a, yWrites] : mine) {
                    const auto &list = byProcWord[q * words + a];
                    auto it = std::lower_bound(
                        list.begin(), list.end(), lo,
                        [](const Access &acc, std::uint32_t idx) {
                            return acc.indexInProc < idx;
                        });
                    for (; it != list.end() && it->indexInProc < hi;
                         ++it) {
                        if (!yWrites && !it->writes)
                            continue;
                        if (ySync && it->sync)
                            continue; // sync-sync: not a data race
                        if (seenBy[it->id] == y)
                            continue;
                        seenBy[it->id] = y;
                        ++v.dataRaces;
                    }
                }
            }
        }
    }
    v.ok = true;
    return v;
}

namespace {

/** Builds the tiny hand-made traces of the self-test. */
class HandTrace
{
  public:
    HandTrace(ProcId procs, Addr words) { t_.setShape(procs, words); }

    EventId
    comp(ProcId p, std::initializer_list<Addr> reads,
         std::initializer_list<Addr> writes)
    {
        Event ev;
        ev.kind = EventKind::Computation;
        ev.proc = p;
        for (const Addr a : reads)
            ev.readSet.set(a);
        for (const Addr a : writes)
            ev.writeSet.set(a);
        ev.opCount = static_cast<std::uint32_t>(reads.size() +
                                                writes.size());
        return t_.addEvent(std::move(ev));
    }

    EventId
    release(ProcId p, Addr a)
    {
        return sync(p, a, wmr::OpKind::Write, wmr::kNoEvent);
    }

    EventId
    acquire(ProcId p, Addr a, EventId paired)
    {
        return sync(p, a, wmr::OpKind::Read, paired);
    }

    const ExecutionTrace &trace() const { return t_; }

  private:
    EventId
    sync(ProcId p, Addr a, wmr::OpKind kind, EventId paired)
    {
        Event ev;
        ev.kind = EventKind::Sync;
        ev.proc = p;
        ev.opCount = 1;
        ev.syncOp.proc = p;
        ev.syncOp.sync = true;
        ev.syncOp.kind = kind;
        ev.syncOp.release = kind == wmr::OpKind::Write;
        ev.syncOp.acquire = kind == wmr::OpKind::Read;
        ev.syncOp.addr = a;
        ev.pairedRelease = paired;
        return t_.addEvent(std::move(ev));
    }

    ExecutionTrace t_;
};

} // namespace

std::string
oracleSelfTest()
{
    // Words: x = 0, y = 1, s = 2, t = 3.  The expected counts are
    // derived by hand in perfbench/README.md ("The race oracle").
    struct Case
    {
        const char *name;
        HandTrace trace;
        std::uint64_t expected;
    };
    std::vector<Case> cases;

    {
        HandTrace h(2, 4); // Figure 1(a): no synchronization.
        h.comp(0, {}, {0, 1});
        h.comp(1, {0, 1}, {});
        cases.push_back({"figure1a", h, 1});
    }
    {
        HandTrace h(2, 4); // Figure 1(b): Unset(s) -> Test&Set(s).
        h.comp(0, {}, {0, 1});
        const EventId rel = h.release(0, 2);
        h.acquire(1, 2, rel);
        h.comp(1, {0, 1}, {});
        cases.push_back({"figure1b", h, 0});
    }
    {
        HandTrace h(2, 4); // Figure 1(b), acquire read the initial s.
        h.comp(0, {}, {0, 1});
        h.release(0, 2);
        h.acquire(1, 2, wmr::kNoEvent);
        h.comp(1, {0, 1}, {});
        cases.push_back({"figure1b-unpaired", h, 1});
    }
    {
        HandTrace h(3, 4); // P0 -> P1 -> P2 through s then t.
        h.comp(0, {}, {0});
        const EventId relS = h.release(0, 2);
        h.acquire(1, 2, relS);
        const EventId relT = h.release(1, 3);
        h.acquire(2, 3, relT);
        h.comp(2, {0}, {});
        cases.push_back({"transitive-chain", h, 0});
    }
    {
        HandTrace h(3, 4); // P2 reads x before its acquire.
        h.comp(0, {}, {0});
        const EventId relS = h.release(0, 2);
        h.acquire(1, 2, relS);
        const EventId relT = h.release(1, 3);
        h.comp(2, {0}, {});
        h.acquire(2, 3, relT);
        cases.push_back({"chain-read-too-early", h, 1});
    }
    {
        HandTrace h(2, 4); // a data read of a sync word.
        h.release(0, 2);
        h.comp(1, {2}, {});
        cases.push_back({"sync-vs-data", h, 1});
    }
    {
        HandTrace h(3, 4); // pairs count once; read-read is no race.
        h.comp(0, {}, {0});
        h.comp(0, {}, {0, 1});
        h.comp(1, {0, 1}, {});
        h.comp(2, {0}, {});
        cases.push_back({"distinct-pairs", h, 4});
    }

    for (const Case &c : cases) {
        const OracleVerdict v = oracleRaces(c.trace.trace());
        if (!v.ok)
            return std::string(c.name) + ": " + v.error;
        if (v.dataRaces != c.expected) {
            return std::string(c.name) + ": oracle found " +
                   std::to_string(v.dataRaces) + " data races, " +
                   std::to_string(c.expected) + " expected";
        }
    }
    return {};
}

} // namespace wmbench
