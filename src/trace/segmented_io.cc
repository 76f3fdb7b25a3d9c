#include "trace/segmented_io.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <numeric>
#include <unordered_map>

#include "common/crc32.hh"
#include "fault/fault.hh"
#include "obs/obs.hh"
#include "trace/wire_codec.hh"

namespace wmr {

namespace {

const char kSegMagic[8] = {'W', 'M', 'R', 'S', 'E', 'G', '0', '1'};

constexpr std::uint8_t kSegData = 'D';
constexpr std::uint8_t kSegFin = 'F';

/** Largest single segment we accept (a frame claiming more is
 *  treated as damage, not as a 2 GiB allocation request). */
constexpr std::uint32_t kMaxSegmentBytes = 1u << 30;

constexpr std::uint64_t kMaxWords = 1ull << 28;

std::uint32_t
readLe32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

void
putLe32(std::uint8_t *p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
    p[2] = static_cast<std::uint8_t>(v >> 16);
    p[3] = static_cast<std::uint8_t>(v >> 24);
}

/** Signal-safe varint: encode @p v into @p out, return bytes used. */
std::size_t
putVarint(std::uint8_t *out, std::uint64_t v)
{
    std::size_t n = 0;
    while (v >= 0x80) {
        out[n++] = static_cast<std::uint8_t>(v) | 0x80;
        v >>= 7;
    }
    out[n++] = static_cast<std::uint8_t>(v);
    return n;
}

/** One event in FILE order, pairing still an ordinal reference
 *  (the public SegFileEvent — declared in the header so incremental
 *  consumers share the exact wire semantics). */
using FileEvent = SegFileEvent;

void
encodeWordList(wire::Encoder &enc, std::vector<Addr> words)
{
    std::sort(words.begin(), words.end());
    words.erase(std::unique(words.begin(), words.end()), words.end());
    enc.u64(words.size());
    Addr prev = 0;
    for (const Addr w : words) {
        enc.u64(w - prev);
        prev = w;
    }
}

std::vector<Addr>
decodeWordList(wire::Decoder &dec, const char *what)
{
    const std::uint64_t count = dec.u64();
    dec.checkCount(count, what);
    std::vector<Addr> words;
    words.reserve(count);
    std::uint64_t idx = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t delta = dec.u64();
        if (i > 0 && delta == 0)
            wire::parseFail("segmented trace: %s word ids not "
                            "strictly increasing",
                            what);
        idx += delta;
        if (idx >= kMaxWords)
            wire::parseFail("segmented trace: %s word id %llu out of "
                            "range",
                            what,
                            static_cast<unsigned long long>(idx));
        words.push_back(static_cast<Addr>(idx));
    }
    return words;
}

void
encodeFileEvent(wire::Encoder &enc, const FileEvent &ev)
{
    enc.u64(ev.kind == EventKind::Sync ? 1 : 0);
    enc.u64(ev.proc);
    enc.u64(ev.firstOp);
    enc.u64(ev.lastOp);
    enc.u64(ev.opCount);
    if (ev.kind == EventKind::Sync) {
        wire::encodeMemOp(enc, ev.syncOp);
        enc.u64(ev.pairing);
    } else {
        encodeWordList(enc, ev.readWords);
        encodeWordList(enc, ev.writeWords);
    }
}

FileEvent
decodeFileEvent(wire::Decoder &dec)
{
    FileEvent ev;
    const std::uint64_t kind = dec.u64();
    if (kind > 1)
        wire::parseFail("segmented trace: bad event kind %llu",
                        static_cast<unsigned long long>(kind));
    ev.kind = kind ? EventKind::Sync : EventKind::Computation;
    const std::uint64_t rawProc = dec.u64();
    if (rawProc >= kNoProc)
        wire::parseFail("segmented trace: event processor %llu too "
                        "large",
                        static_cast<unsigned long long>(rawProc));
    ev.proc = static_cast<ProcId>(rawProc);
    ev.firstOp = dec.u64();
    ev.lastOp = dec.u64();
    const std::uint64_t rawCount = dec.u64();
    if (rawCount > 0xffffffffull)
        wire::parseFail("segmented trace: event op count %llu too "
                        "large",
                        static_cast<unsigned long long>(rawCount));
    ev.opCount = static_cast<std::uint32_t>(rawCount);
    if (ev.kind == EventKind::Sync) {
        ev.syncOp = wire::decodeMemOp(dec);
        ev.pairing = dec.u64();
    } else {
        ev.readWords = decodeWordList(dec, "read set");
        ev.writeWords = decodeWordList(dec, "write set");
    }
    return ev;
}

/** Everything the frame scan recovers before trace rebuild. */
struct ScanResult
{
    std::vector<FileEvent> events;
    bool finSeen = false;
    SegShape fin;
    std::uint64_t droppedSoFar = 0;
    std::uint64_t segments = 0;
    // Damage (salvage mode only — strict throws instead).
    std::uint64_t segmentsDropped = 0;
    std::uint64_t bytesDropped = 0;
    std::string note;
};

/**
 * Parse one CRC-verified segment payload.  DATA events/counters land
 * in @p seg; a FIN fills @p fin.  Throws wire::ParseFailure on any
 * problem (including a segment appearing after the FIN).  @return
 * whether the payload was the FIN.
 */
bool
parseSegmentPayload(const std::uint8_t *payload, std::uint32_t len,
                    bool finAlready, SegTailSegment &seg,
                    SegShape &fin)
{
    wire::Decoder dec(payload, len);
    std::uint8_t tag = 0;
    dec.raw(&tag, 1);
    if (finAlready)
        wire::parseFail("segmented trace: segment after FIN");
    bool isFin = false;
    if (tag == kSegData) {
        seg.opsSoFar = dec.u64();
        seg.droppedSoFar = dec.u64();
        const std::uint64_t nevents = dec.u64();
        dec.checkCount(nevents, "segment event");
        for (std::uint64_t i = 0; i < nevents; ++i)
            seg.events.push_back(decodeFileEvent(dec));
    } else if (tag == kSegFin) {
        const std::uint64_t procs = dec.u64();
        if (procs >= kNoProc)
            wire::parseFail("segmented trace: FIN processor "
                            "count %llu too large",
                            static_cast<unsigned long long>(procs));
        const std::uint64_t words = dec.u64();
        if (words > kMaxWords)
            wire::parseFail("segmented trace: FIN universe "
                            "%llu too large",
                            static_cast<unsigned long long>(words));
        fin.procs = static_cast<ProcId>(procs);
        fin.memWords = static_cast<Addr>(words);
        fin.firstStaleRead = dec.u64();
        fin.totalOps = dec.u64();
        fin.droppedRecords = dec.u64();
        isFin = true;
    } else {
        wire::parseFail("segmented trace: unknown segment "
                        "tag 0x%02x",
                        tag);
    }
    if (!dec.done())
        wire::parseFail("segmented trace: trailing bytes in segment");
    return isFin;
}

/**
 * Scan segments from byte 8 on.  Strict mode throws ParseFailure at
 * the first problem; salvage mode records the damage, discards the
 * tail and returns what verified.
 */
ScanResult
scanSegments(const std::vector<std::uint8_t> &bytes, bool strict)
{
    ScanResult out;
    std::size_t off = sizeof(kSegMagic);

    const auto damage = [&](std::size_t at, const std::string &why) {
        if (strict)
            wire::parseFail("segmented trace: %s (offset %zu); a "
                            "partial recording can be recovered with "
                            "salvage",
                            why.c_str(), at);
        out.segmentsDropped = bytes.size() > at ? 1 : 0;
        out.bytesDropped = bytes.size() - at;
        out.note = why;
    };

    while (off < bytes.size()) {
        const std::size_t frameStart = off;
        if (bytes.size() - off < 4) {
            damage(frameStart, "truncated segment length");
            return out;
        }
        const std::uint32_t len = readLe32(bytes.data() + off);
        if (len == 0 || len > kMaxSegmentBytes ||
            len + 8ull > bytes.size() - off) {
            damage(frameStart, "truncated or oversized segment");
            return out;
        }
        const std::uint8_t *payload = bytes.data() + off + 4;
        const std::uint32_t stored = readLe32(payload + len);
        if (crc32(payload, len) != stored) {
            damage(frameStart, "segment checksum mismatch");
            return out;
        }

        // The frame verified; parse the payload.  In salvage mode a
        // payload that fails to decode still ends recovery here —
        // the CRC says the bytes are what the writer wrote, so a
        // parse failure means a writer/reader version skew we cannot
        // safely guess past.
        try {
            SegTailSegment seg;
            if (parseSegmentPayload(payload, len, out.finSeen, seg,
                                    out.fin)) {
                out.finSeen = true;
            } else {
                out.droppedSoFar = seg.droppedSoFar;
                std::move(seg.events.begin(), seg.events.end(),
                          std::back_inserter(out.events));
            }
        } catch (const wire::ParseFailure &pf) {
            if (strict)
                throw;
            damage(frameStart, pf.message);
            return out;
        }

        ++out.segments;
        off += 4ull + len + 4;
    }
    return out;
}

/** Rebuild an ExecutionTrace from the recovered file-order events. */
SegTraceReadResult
buildFromScan(ScanResult scan, bool strict)
{
    SegTraceReadResult res;
    SalvageInfo &sv = res.salvage;
    sv.finSeen = scan.finSeen;
    sv.segmentsRecovered = scan.segments;
    sv.segmentsDropped = scan.segmentsDropped;
    sv.bytesDropped = scan.bytesDropped;
    sv.note = scan.note;
    sv.salvaged = !scan.finSeen || scan.segmentsDropped > 0 ||
                  scan.bytesDropped > 0;
    if (sv.salvaged && sv.note.empty())
        sv.note = "no FIN segment (recording did not shut down "
                  "cleanly)";
    sv.droppedDataRecords =
        scan.finSeen ? scan.fin.droppedRecords : scan.droppedSoFar;

    if (strict && !scan.finSeen)
        wire::parseFail("segmented trace: missing FIN segment — the "
                        "recording did not shut down cleanly; a "
                        "partial recording can be recovered with "
                        "salvage");

    // Shape: the FIN is authoritative; without one (or when a
    // damaged file disagrees with it) widen to cover every event.
    ProcId procs = scan.finSeen ? scan.fin.procs : 0;
    Addr words = scan.finSeen ? scan.fin.memWords : 0;
    std::uint64_t totalOps = scan.finSeen ? scan.fin.totalOps : 0;
    std::uint64_t opsSeen = 0;
    for (const FileEvent &ev : scan.events) {
        ProcId needProcs = static_cast<ProcId>(ev.proc + 1);
        Addr needWords = 0;
        if (ev.kind == EventKind::Sync) {
            needWords = ev.syncOp.addr + 1;
        } else {
            if (!ev.readWords.empty())
                needWords = ev.readWords.back() + 1;
            if (!ev.writeWords.empty())
                needWords = std::max(needWords,
                                     ev.writeWords.back() + 1);
        }
        if (strict && scan.finSeen &&
            (needProcs > procs || needWords > words)) {
            wire::parseFail("segmented trace: event exceeds the FIN "
                            "shape (%u procs, %u words)",
                            static_cast<unsigned>(procs),
                            static_cast<unsigned>(words));
        }
        procs = std::max(procs, needProcs);
        words = std::max(words, needWords);
        opsSeen += ev.opCount;
    }
    if (procs == 0)
        procs = 1;
    if (!scan.finSeen)
        totalOps = opsSeen;

    sv.eventsRecovered = scan.events.size();
    sv.opsRecovered = opsSeen;

    res.trace.setShape(procs, words);
    res.trace.setFirstStaleRead(scan.finSeen ? scan.fin.firstStaleRead
                                             : kNoOp);
    res.trace.setTotalOps(totalOps);

    // Events are registered in first-op order (matching the classic
    // builder) while pairing ordinals refer to FILE order, so map
    // one onto the other.  The spill order already respects both the
    // per-processor and the per-location sync orders, and first-op
    // order refines it deterministically.
    const std::size_t n = scan.events.size();
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return scan.events[a].firstOp <
                                scan.events[b].firstOp;
                     });
    std::vector<EventId> idByOrdinal(n, kNoEvent);

    for (std::size_t i = 0; i < n; ++i) {
        FileEvent &fe = scan.events[order[i]];
        Event ev;
        ev.kind = fe.kind;
        ev.proc = fe.proc;
        ev.firstOp = fe.firstOp;
        ev.lastOp = fe.lastOp;
        ev.opCount = fe.opCount;
        if (fe.kind == EventKind::Sync) {
            ev.syncOp = fe.syncOp;
        } else {
            ev.readSet.resize(words);
            ev.writeSet.resize(words);
            for (const Addr w : fe.readWords)
                ev.readSet.set(w);
            for (const Addr w : fe.writeWords)
                ev.writeSet.set(w);
        }
        idByOrdinal[order[i]] = res.trace.addEvent(std::move(ev));
    }

    // Resolve release→acquire pairing ordinals to event ids.  A
    // pairing that points outside the recovered prefix loses its so1
    // edge; strict mode treats that as corruption.
    for (std::size_t ord = 0; ord < n; ++ord) {
        const FileEvent &fe = scan.events[ord];
        if (fe.kind != EventKind::Sync || fe.pairing == 0)
            continue;
        const std::uint64_t target = fe.pairing - 1;
        const bool resolvable =
            target < n &&
            scan.events[target].kind == EventKind::Sync;
        if (!resolvable) {
            if (strict)
                wire::parseFail("segmented trace: event pairing "
                                "%llu unresolvable",
                                static_cast<unsigned long long>(
                                    fe.pairing));
            ++sv.unresolvedPairings;
            continue;
        }
        res.trace.mutableEvent(idByOrdinal[ord]).pairedRelease =
            idByOrdinal[target];
    }

    return res;
}

SegTraceReadResult
readSegmented(const std::vector<std::uint8_t> &bytes, bool strict)
{
    obs::Span span(strict ? "trace.read_segmented"
                          : "trace.salvage");
    obs::counter(strict ? "trace.segmented_reads"
                        : "trace.salvage_reads")
        .inc();
    SegTraceReadResult res;
    if (!looksSegmented(bytes.data(), bytes.size())) {
        res.status = TraceIoStatus::FormatError;
        res.error = "not a segmented trace (bad magic)";
        return res;
    }
    try {
        res = buildFromScan(scanSegments(bytes, strict), strict);
    } catch (const wire::ParseFailure &pf) {
        res.status = TraceIoStatus::FormatError;
        res.error = pf.message;
        res.trace = ExecutionTrace();
        return res;
    }
    if (res.salvage.salvaged && span.recording())
        span.annotate(res.salvage.summary());
    return res;
}

bool
loadFile(const std::string &path, std::vector<std::uint8_t> &bytes,
         std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot open '" + path + "': " +
                std::strerror(errno);
        return false;
    }
    in.seekg(0, std::ios::end);
    const auto size = in.tellg();
    in.seekg(0, std::ios::beg);
    bytes.resize(size > 0 ? static_cast<std::size_t>(size) : 0);
    if (!bytes.empty() &&
        !in.read(reinterpret_cast<char *>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()))) {
        error = "cannot read '" + path + "'";
        return false;
    }
    injectReadFaults(bytes);
    return true;
}

SegTraceReadResult
readSegmentedFile(const std::string &path, bool strict)
{
    SegTraceReadResult res;
    std::vector<std::uint8_t> bytes;
    if (!loadFile(path, bytes, res.error)) {
        res.status = TraceIoStatus::IoError;
        return res;
    }
    return readSegmented(bytes, strict);
}

} // namespace

void
injectReadFaults(std::vector<std::uint8_t> &bytes)
{
    // A short read drops the file's tail (param = bytes to drop), a
    // bit-flip corrupts one byte (param = byte offset).  Both land
    // AFTER a successful read, modelling storage rot rather than
    // syscall failure — the frame CRCs must turn either into typed
    // damage, never a wrong report.
    std::uint64_t p = 0;
    if (fault::at("trace.read.short", &p) && !bytes.empty()) {
        const std::size_t drop = std::max<std::uint64_t>(p, 1);
        bytes.resize(bytes.size() > drop ? bytes.size() - drop : 0);
    }
    if (fault::at("trace.read.bitflip", &p) && !bytes.empty())
        bytes[p % bytes.size()] ^= 0x01;
}

bool
looksSegmented(const std::uint8_t *data, std::size_t n)
{
    return n >= sizeof(kSegMagic) &&
           std::memcmp(data, kSegMagic, sizeof(kSegMagic)) == 0;
}

std::string
SalvageInfo::summary() const
{
    char buf[256];
    if (!salvaged) {
        std::snprintf(buf, sizeof(buf),
                      "complete (%llu segments, %llu events)",
                      static_cast<unsigned long long>(
                          segmentsRecovered),
                      static_cast<unsigned long long>(
                          eventsRecovered));
        return buf;
    }
    std::snprintf(
        buf, sizeof(buf),
        "salvaged %llu events (%llu ops) from %llu segments; "
        "%llu damaged segment(s), %llu bytes dropped",
        static_cast<unsigned long long>(eventsRecovered),
        static_cast<unsigned long long>(opsRecovered),
        static_cast<unsigned long long>(segmentsRecovered),
        static_cast<unsigned long long>(segmentsDropped),
        static_cast<unsigned long long>(bytesDropped));
    std::string s = buf;
    if (!note.empty())
        s += "; " + note;
    return s;
}

std::string
formatTraceProvenance(bool segmented, const SalvageInfo &salvage)
{
    if (!segmented)
        return "";
    std::string out;
    char buf[256];
    if (salvage.salvaged) {
        out += "SALVAGED trace: " + salvage.summary() + "\n";
        if (salvage.unresolvedPairings > 0) {
            std::snprintf(buf, sizeof(buf),
                          "  %llu release->acquire pairing(s) lost "
                          "with the dropped tail\n",
                          static_cast<unsigned long long>(
                              salvage.unresolvedPairings));
            out += buf;
        }
    }
    if (salvage.droppedDataRecords > 0) {
        std::snprintf(buf, sizeof(buf),
                      "RECORDER LOSS: %llu data record(s) dropped "
                      "by the ring-overflow Drop policy; computation "
                      "events undercount accordingly\n",
                      static_cast<unsigned long long>(
                          salvage.droppedDataRecords));
        out += buf;
    }
    return out;
}

SegTraceReadResult
tryReadSegmentedTrace(const std::vector<std::uint8_t> &bytes)
{
    return readSegmented(bytes, /*strict=*/true);
}

SegTraceReadResult
tryReadSegmentedTraceFile(const std::string &path)
{
    return readSegmentedFile(path, /*strict=*/true);
}

SegTraceReadResult
trySalvageTrace(const std::vector<std::uint8_t> &bytes)
{
    return readSegmented(bytes, /*strict=*/false);
}

SegTraceReadResult
trySalvageTraceFile(const std::string &path)
{
    return readSegmentedFile(path, /*strict=*/false);
}

// --- SegmentSpillWriter -----------------------------------------

SegmentSpillWriter::~SegmentSpillWriter()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
SegmentSpillWriter::fail(const std::string &why)
{
    if (error_.empty())
        error_ = why + ": " + std::strerror(errno);
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    return false;
}

bool
SegmentSpillWriter::open(const std::string &path)
{
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd_ < 0)
        return fail("cannot open '" + path + "'");
    const std::uint8_t *magic =
        reinterpret_cast<const std::uint8_t *>(kSegMagic);
    std::size_t done = 0;
    while (done < sizeof(kSegMagic)) {
        const ssize_t w =
            ::write(fd_, magic + done, sizeof(kSegMagic) - done);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return fail("cannot write magic");
        }
        done += static_cast<std::size_t>(w);
    }
    bytes_ = sizeof(kSegMagic);
    return true;
}

void
SegmentSpillWriter::addEvent(const SegEvent &ev)
{
    FileEvent fe;
    fe.kind = ev.kind;
    fe.proc = ev.proc;
    fe.firstOp = ev.firstOp;
    fe.lastOp = ev.lastOp;
    fe.opCount = ev.opCount;
    fe.syncOp = ev.syncOp;
    fe.readWords = ev.readWords;
    fe.writeWords = ev.writeWords;
    if (ev.kind == EventKind::Sync) {
        if (ev.pairedToken != 0) {
            const auto it = tokenMap_.find(ev.pairedToken);
            if (it != tokenMap_.end())
                fe.pairing = it->second + 1;
        }
        if (ev.releaseToken != 0)
            tokenMap_[ev.releaseToken] = nextOrdinal_;
    }

    wire::Encoder enc;
    encodeFileEvent(enc, fe);
    pending_.insert(pending_.end(), enc.data(),
                    enc.data() + enc.size());
    ++pendingEvents_;
    ++nextOrdinal_;
}

std::size_t
SegmentSpillWriter::pendingBytes() const
{
    return pending_.size();
}

bool
SegmentSpillWriter::writeFrame(const std::uint8_t *hdr,
                               std::size_t hdrLen,
                               const std::uint8_t *body,
                               std::size_t bodyLen, bool fsyncAfter,
                               bool faults)
{
    if (fd_ < 0)
        return false;

    std::uint32_t crc = crc32Init();
    crc = crc32Update(crc, hdr, hdrLen);
    crc = crc32Update(crc, body, bodyLen);
    crc = crc32Final(crc);

    std::uint8_t lenBuf[4];
    std::uint8_t crcBuf[4];
    putLe32(lenBuf, static_cast<std::uint32_t>(hdrLen + bodyLen));
    putLe32(crcBuf, crc);

    // Fault injection on the write boundary.  The ENOSPC site fails
    // the whole frame (the recorder's drain path must degrade, not
    // crash); the EINTR site storms the loop with param spurious
    // interrupts (default 3) so the retry really runs; the short
    // site caps every write at one byte, forcing the partial-
    // transfer accounting through its paces.
    std::uint64_t p = 0;
    if (faults && fault::at("trace.seg.write.enospc", &p)) {
        errno = ENOSPC;
        return fail("segment write failed");
    }
    std::uint64_t stormLeft = 0;
    if (faults && fault::at("trace.seg.write.eintr", &p))
        stormLeft = p != 0 ? p : 3;
    const bool shortWrites =
        faults && fault::at("trace.seg.write.short");

    const std::uint8_t *parts[4] = {lenBuf, hdr, body, crcBuf};
    const std::size_t partLens[4] = {4, hdrLen, bodyLen, 4};
    for (int i = 0; i < 4; ++i) {
        std::size_t done = 0;
        while (done < partLens[i]) {
            ssize_t w;
            if (stormLeft > 0) {
                --stormLeft;
                errno = EINTR;
                w = -1;
            } else {
                w = ::write(fd_, parts[i] + done,
                            shortWrites ? 1 : partLens[i] - done);
            }
            if (w < 0) {
                if (errno == EINTR)
                    continue;
                return fail("segment write failed");
            }
            done += static_cast<std::size_t>(w);
        }
    }
    bytes_ += 8 + hdrLen + bodyLen;
    ++segments_;
    if (fsyncAfter)
        ::fsync(fd_);
    return true;
}

bool
SegmentSpillWriter::sealSegment()
{
    if (pending_.empty())
        return fd_ >= 0;
    // Header on the stack: tag + three varints (signal-safe; the
    // crash path shares this framing).
    std::uint8_t hdr[1 + 3 * 10];
    std::size_t h = 0;
    hdr[h++] = kSegData;
    h += putVarint(hdr + h, ops_);
    h += putVarint(hdr + h, dropped_);
    h += putVarint(hdr + h, pendingEvents_);
    if (!writeFrame(hdr, h, pending_.data(), pending_.size(),
                    /*fsyncAfter=*/false))
        return false;
    pending_.clear();
    pendingEvents_ = 0;
    return true;
}

bool
SegmentSpillWriter::crashSeal()
{
    // Fatal-signal path: frame whatever payload bytes exist using
    // only stack memory and raw syscalls, then fsync.  If the drain
    // thread was concurrently appending, the frame may be torn — the
    // CRC will reject exactly that one segment at salvage time.
    if (fd_ < 0)
        return false;
    if (!pending_.empty()) {
        std::uint8_t hdr[1 + 3 * 10];
        std::size_t h = 0;
        hdr[h++] = kSegData;
        h += putVarint(hdr + h, ops_);
        h += putVarint(hdr + h, dropped_);
        h += putVarint(hdr + h, pendingEvents_);
        if (!writeFrame(hdr, h, pending_.data(), pending_.size(),
                        /*fsyncAfter=*/false, /*faults=*/false))
            return false;
        pendingEvents_ = 0;
    }
    ::fsync(fd_);
    return true;
}

void
SegmentSpillWriter::writeTornFrame()
{
    if (fd_ < 0)
        return;
    // A frame header claiming 4 KiB of payload, followed by only a
    // few garbage bytes: exactly what a crash mid-write leaves.
    std::uint8_t buf[12];
    putLe32(buf, 4096);
    std::memset(buf + 4, 0x5a, 8);
    std::size_t done = 0;
    while (done < sizeof(buf)) {
        const ssize_t w = ::write(fd_, buf + done,
                                  sizeof(buf) - done);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        done += static_cast<std::size_t>(w);
    }
    ::fsync(fd_);
}

bool
SegmentSpillWriter::finish(const SegShape &shape)
{
    if (!sealSegment())
        return false;
    std::uint8_t hdr[1 + 5 * 10];
    std::size_t h = 0;
    hdr[h++] = kSegFin;
    h += putVarint(hdr + h, shape.procs);
    h += putVarint(hdr + h, shape.memWords);
    h += putVarint(hdr + h, shape.firstStaleRead);
    h += putVarint(hdr + h, shape.totalOps);
    h += putVarint(hdr + h, shape.droppedRecords);
    if (!writeFrame(hdr, h, nullptr, 0, /*fsyncAfter=*/true))
        return false;
    ::close(fd_);
    fd_ = -1;
    return true;
}

// --- Whole-trace serialization (tests and tooling) ---------------

std::vector<std::uint8_t>
serializeSegmentedTrace(const ExecutionTrace &trace,
                        std::size_t eventsPerSegment)
{
    if (eventsPerSegment == 0)
        eventsPerSegment = 64;

    std::vector<std::uint8_t> out(
        reinterpret_cast<const std::uint8_t *>(kSegMagic),
        reinterpret_cast<const std::uint8_t *>(kSegMagic) +
            sizeof(kSegMagic));

    const auto appendFrame = [&out](const wire::Encoder &payload) {
        std::uint8_t buf[4];
        putLe32(buf, static_cast<std::uint32_t>(payload.size()));
        out.insert(out.end(), buf, buf + 4);
        out.insert(out.end(), payload.data(),
                   payload.data() + payload.size());
        putLe32(buf, crc32(payload.data(), payload.size()));
        out.insert(out.end(), buf, buf + 4);
    };

    // File order = event id order, so the pairing ordinal of event e
    // is exactly its id.
    const auto &events = trace.events();
    std::uint64_t opsSoFar = 0;
    for (std::size_t base = 0; base < events.size();
         base += eventsPerSegment) {
        const std::size_t count =
            std::min(eventsPerSegment, events.size() - base);
        wire::Encoder enc;
        const std::uint8_t tag = kSegData;
        enc.raw(&tag, 1);
        enc.u64(opsSoFar);
        enc.u64(0); // droppedSoFar: complete traces lose nothing
        enc.u64(count);
        for (std::size_t i = 0; i < count; ++i) {
            const Event &ev = events[base + i];
            FileEvent fe;
            fe.kind = ev.kind;
            fe.proc = ev.proc;
            fe.firstOp = ev.firstOp;
            fe.lastOp = ev.lastOp;
            fe.opCount = ev.opCount;
            if (ev.kind == EventKind::Sync) {
                fe.syncOp = ev.syncOp;
                fe.pairing = ev.pairedRelease == kNoEvent
                                 ? 0
                                 : ev.pairedRelease + 1ull;
            } else {
                ev.readSet.forEach([&](std::size_t w) {
                    fe.readWords.push_back(static_cast<Addr>(w));
                });
                ev.writeSet.forEach([&](std::size_t w) {
                    fe.writeWords.push_back(static_cast<Addr>(w));
                });
            }
            encodeFileEvent(enc, fe);
            opsSoFar += ev.opCount;
        }
        appendFrame(enc);
    }

    wire::Encoder fin;
    const std::uint8_t tag = kSegFin;
    fin.raw(&tag, 1);
    fin.u64(trace.numProcs());
    fin.u64(trace.memWords());
    fin.u64(trace.firstStaleRead());
    fin.u64(trace.totalOps());
    fin.u64(0); // droppedRecords
    appendFrame(fin);
    return out;
}

std::size_t
writeSegmentedTraceFile(const ExecutionTrace &trace,
                        const std::string &path,
                        std::size_t eventsPerSegment)
{
    const auto bytes = serializeSegmentedTrace(trace,
                                               eventsPerSegment);
    std::ofstream outFile(path, std::ios::binary);
    if (!outFile ||
        !outFile.write(reinterpret_cast<const char *>(bytes.data()),
                       static_cast<std::streamsize>(bytes.size())))
        return 0;
    return bytes.size();
}

// --- SegmentTailReader -------------------------------------------

SegmentTailReader::~SegmentTailReader()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
SegmentTailReader::open(const std::string &path)
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = ::open(path.c_str(), O_RDONLY);
    if (fd_ < 0) {
        error_ = "cannot open '" + path + "': " +
                 std::strerror(errno);
        return false;
    }
    return true;
}

TailPollStatus
SegmentTailReader::fail(std::uint64_t at, const std::string &why)
{
    damaged_ = true;
    damageAt_ = at;
    damageNote_ = why;
    return TailPollStatus::Damaged;
}

TailPollStatus
SegmentTailReader::poll(std::vector<SegTailSegment> &segs)
{
    if (fd_ < 0)
        return TailPollStatus::Damaged;
    if (damaged_)
        return TailPollStatus::Damaged;
    if (finSeen_ && buf_.empty())
        return TailPollStatus::Fin;

    // Fault injection on the tail: a stalled tail reports Waiting
    // without touching the file (the consumer's liveness handling —
    // keep polling, then finalize — must absorb it), and the damage
    // site corrupts one byte of freshly appended data, modelling a
    // segment sealed to disk and then rotted under the reader.
    if (fault::at("stream.tail.stall"))
        return TailPollStatus::Waiting;
    const bool damageAppend = fault::at("stream.tail.damage");
    const std::size_t bufBefore = buf_.size();

    // Pull every newly appended byte.  On a regular file read()
    // returns 0 at the current EOF; a later poll() sees appends.
    std::uint8_t chunk[1 << 16];
    for (;;) {
        const ssize_t r = ::read(fd_, chunk, sizeof(chunk));
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return fail(seen_, std::string("read failed: ") +
                                   std::strerror(errno));
        }
        if (r == 0)
            break;
        buf_.insert(buf_.end(), chunk, chunk + r);
        seen_ += static_cast<std::uint64_t>(r);
    }
    if (damageAppend && buf_.size() > bufBefore)
        buf_.back() ^= 0x01;

    // The magic is just a fixed 8-byte prefix frame.
    std::size_t pos = 0; // into buf_, which starts at offset consumed_
    if (!magicOk_) {
        if (consumed_ != 0)
            return fail(consumed_, "internal: resumed before magic");
        if (buf_.size() < sizeof(kSegMagic))
            return TailPollStatus::Waiting;
        if (std::memcmp(buf_.data(), kSegMagic, sizeof(kSegMagic)) !=
            0)
            return fail(0, "not a segmented trace (bad magic)");
        magicOk_ = true;
        pos = sizeof(kSegMagic);
    }

    bool progressed = pos > 0;
    for (;;) {
        const std::uint64_t frameStart = consumed_ + pos;
        const std::size_t avail = buf_.size() - pos;
        if (avail == 0)
            break;
        if (finSeen_)
            return fail(frameStart,
                        "segmented trace: segment after FIN");
        if (avail < 4)
            break; // mid-length: more may come
        const std::uint32_t len = readLe32(buf_.data() + pos);
        if (len == 0 || len > kMaxSegmentBytes) {
            // No append can make this frame valid.
            return fail(frameStart, "truncated or oversized segment");
        }
        if (len + 8ull > avail)
            break; // mid-frame: more may come
        const std::uint8_t *payload = buf_.data() + pos + 4;
        const std::uint32_t stored = readLe32(payload + len);
        if (crc32(payload, len) != stored) {
            // The frame is fully present yet fails its checksum:
            // a torn/corrupt write, damaged no matter what follows.
            return fail(frameStart, "segment checksum mismatch");
        }
        SegTailSegment seg;
        try {
            if (parseSegmentPayload(payload, len, finSeen_, seg,
                                    fin_)) {
                finSeen_ = true;
            } else {
                droppedSoFar_ = seg.droppedSoFar;
                events_ += seg.events.size();
                for (const SegFileEvent &ev : seg.events)
                    ops_ += ev.opCount;
                segs.push_back(std::move(seg));
            }
        } catch (const wire::ParseFailure &pf) {
            return fail(frameStart, pf.message);
        }
        ++segments_;
        pos += 4ull + len + 4;
        progressed = true;
    }

    // Drop consumed bytes; keep the unconsumed tail buffered.
    if (pos > 0) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(pos));
        consumed_ += pos;
    }
    if (finSeen_ && buf_.empty())
        return TailPollStatus::Fin;
    return progressed ? TailPollStatus::Progress
                      : TailPollStatus::Waiting;
}

bool
SegmentTailReader::finalize(bool strict)
{
    finalized_ = true;

    // No decodable magic: mirror readSegmented's FormatError — both
    // strict and salvage reject such a file outright.
    if (!magicOk_) {
        error_ = damageNote_.empty()
                     ? "not a segmented trace (bad magic)"
                     : damageNote_;
        salvage_.salvaged = true;
        salvage_.note = error_;
        return false;
    }

    // An unconsumed tail at final EOF is damage after all — exactly
    // what trySalvageTrace would have said about the same bytes.
    std::uint64_t damageAt = damaged_ ? damageAt_ : consumed_;
    std::string note = damageNote_;
    if (!damaged_ && !buf_.empty()) {
        note = buf_.size() < 4 ? "truncated segment length"
                               : "truncated or oversized segment";
    }
    const bool anyDamage = damaged_ || !buf_.empty();

    salvage_.finSeen = finSeen_;
    salvage_.segmentsRecovered = segments_;
    salvage_.segmentsDropped = anyDamage && seen_ > damageAt ? 1 : 0;
    salvage_.bytesDropped = anyDamage ? seen_ - damageAt : 0;
    salvage_.eventsRecovered = events_;
    salvage_.opsRecovered = ops_;
    salvage_.droppedDataRecords =
        finSeen_ ? fin_.droppedRecords : droppedSoFar_;
    salvage_.note = anyDamage ? note : "";
    salvage_.salvaged = !finSeen_ || salvage_.segmentsDropped > 0 ||
                        salvage_.bytesDropped > 0;
    if (salvage_.salvaged && salvage_.note.empty())
        salvage_.note = "no FIN segment (recording did not shut down "
                        "cleanly)";

    if (strict) {
        if (anyDamage) {
            char buf[512];
            std::snprintf(buf, sizeof(buf),
                          "segmented trace: %s (offset %llu); a "
                          "partial recording can be recovered with "
                          "salvage",
                          note.c_str(),
                          static_cast<unsigned long long>(damageAt));
            error_ = buf;
            return false;
        }
        if (!finSeen_) {
            error_ = "segmented trace: missing FIN segment — the "
                     "recording did not shut down cleanly; a "
                     "partial recording can be recovered with "
                     "salvage";
            return false;
        }
    }
    return true;
}

} // namespace wmr
