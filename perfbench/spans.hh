/**
 * @file
 * In-memory span recorder of the benchmark's traced mode.
 *
 * The benchmark wraps each call into a program layer in a span (name,
 * start, end, parent).  Spans stay in memory until the run ends and
 * are then written as a Chrome trace_event file.  A layer's self time
 * is its span's duration minus what its child spans cover.  Spans
 * are recorded on one thread, so children nest strictly inside their
 * parent.
 */

#ifndef WMBENCH_SPANS_HH
#define WMBENCH_SPANS_HH

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace wmbench {

class SpanRecorder
{
  public:
    using Clock = std::chrono::steady_clock;

    struct Span
    {
        std::string name;
        double start = 0; ///< seconds since the recorder was made
        double end = 0;
        int parent = -1;  ///< index of the enclosing span, -1 = root
    };

    /** RAII guard: opens a span on construction, closes it on exit. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, std::string name)
            : rec_(rec), id_(rec.open(std::move(name)))
        {
        }
        ~Scope() { rec_.close(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &rec_;
        int id_;
    };

    int
    open(std::string name)
    {
        Span s;
        s.name = std::move(name);
        s.start = now();
        s.parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back(std::move(s));
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int id)
    {
        spans_[id].end = now();
        stack_.pop_back();
    }

    /** @return summed self time, in seconds, of every span per name. */
    std::map<std::string, double>
    selfSeconds() const
    {
        std::vector<double> childCover(spans_.size(), 0);
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                childCover[s.parent] += s.end - s.start;
        }
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            out[spans_[i].name] +=
                spans_[i].end - spans_[i].start - childCover[i];
        }
        return out;
    }

    /** Write every span as a Chrome trace_event "X" event. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - t0_).count();
    }

    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

} // namespace wmbench

#endif // WMBENCH_SPANS_HH
