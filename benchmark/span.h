/**
 * @file
 * In-memory span recorder for the benchmark's traced pass.
 *
 * A span is one call into a layer's public function, recorded from the
 * benchmark's side of the call: name ("<layer>.<call>"), start and end
 * (steady-clock nanoseconds), the span that caused it, a request id
 * (pass, partition or job) and the track (thread) it ran on. Spans stay
 * in memory and are written once, at exit, as Chrome trace-event JSON
 * that loads in Perfetto (ui.perfetto.dev) or chrome://tracing.
 *
 * Self time: a span's duration minus the union of its same-track
 * children's intervals, clipped to the span. Children on another track
 * (a service job on a worker slot, caused by a submit on the generator
 * thread) run concurrently with their parent, so they do not reduce its
 * self time. On one track, the self times of a span tree therefore sum
 * to the root's duration exactly when every child lies inside its
 * parent, which checkTree() verifies.
 *
 * Not thread-safe: only the benchmark's main thread records spans.
 */

#ifndef GENESIS_BENCHMARK_SPAN_H
#define GENESIS_BENCHMARK_SPAN_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace genesis::benchmark {

/** Nanoseconds on the steady clock (the time base of every span). */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** `s` escaped for use inside a JSON string literal. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

class SpanRecorder
{
  public:
    /** Recording is off until enabled; a disabled recorder drops spans. */
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Open a span on track 0 under the innermost open span. */
    int
    begin(std::string name, int64_t request = -1)
    {
        if (!enabled_)
            return -1;
        int id = add(std::move(name), nowNs(), 0,
                     open_.empty() ? -1 : open_.back(), request, 0);
        open_.push_back(id);
        return id;
    }

    /** Close the innermost open span (which must be `id`). */
    void
    end(int id)
    {
        if (id < 0)
            return;
        spans_[static_cast<size_t>(id)].endNs = nowNs();
        if (!open_.empty() && open_.back() == id)
            open_.pop_back();
    }

    /** Record an already-measured span (e.g. reconstructed from a
     *  JobResult's queue/service seconds). */
    int
    add(std::string name, int64_t start_ns, int64_t end_ns, int parent,
        int64_t request, int track)
    {
        if (!enabled_)
            return -1;
        spans_.push_back(
            {std::move(name), start_ns, end_ns, parent, request, track});
        return static_cast<int>(spans_.size()) - 1;
    }

    /** Label a track (thread row) in the written trace. */
    void nameTrack(int track, std::string name)
    {
        trackNames_[track] = std::move(name);
    }

    /** RAII span: begin on construction, end on destruction. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, std::string name, int64_t request = -1)
            : rec_(rec), id_(rec.begin(std::move(name), request))
        {
        }
        ~Scope() { rec_.end(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &rec_;
        int id_;
    };

    /** Self time of one span, in seconds. */
    double
    selfSeconds(int id) const
    {
        const Span &s = spans_[static_cast<size_t>(id)];
        std::vector<std::pair<int64_t, int64_t>> kids;
        for (const Span &c : spans_) {
            if (&c != &s && c.parent == id && c.track == s.track) {
                int64_t a = std::max(c.startNs, s.startNs);
                int64_t b = std::min(c.endNs, s.endNs);
                if (b > a)
                    kids.emplace_back(a, b);
            }
        }
        std::sort(kids.begin(), kids.end());
        int64_t covered = 0, reach = s.startNs;
        for (const auto &[a, b] : kids) {
            int64_t from = std::max(a, reach);
            if (b > from)
                covered += b - from;
            reach = std::max(reach, b);
        }
        return static_cast<double>(s.endNs - s.startNs - covered) * 1e-9;
    }

    /** Layer of a span: its name up to the first '.'. */
    static std::string
    layerOf(const std::string &name)
    {
        return name.substr(0, name.find('.'));
    }

    /** Summed self seconds per layer over every recorded span. */
    std::map<std::string, double>
    selfSecondsByLayer() const
    {
        std::map<std::string, double> out;
        for (size_t i = 0; i < spans_.size(); ++i)
            out[layerOf(spans_[i].name)] += selfSeconds(static_cast<int>(i));
        return out;
    }

    /**
     * Sum of self times over `root` and its same-track descendants, as
     * a fraction of the root's duration (1.0 when every child nests in
     * its parent).
     */
    double
    treeSelfFraction(int root) const
    {
        const Span &r = spans_[static_cast<size_t>(root)];
        double sum = 0;
        for (size_t i = 0; i < spans_.size(); ++i) {
            if (spans_[i].track == r.track &&
                descendsFrom(static_cast<int>(i), root))
                sum += selfSeconds(static_cast<int>(i));
        }
        double dur = static_cast<double>(r.endNs - r.startNs) * 1e-9;
        return dur > 0 ? sum / dur : 1.0;
    }

    /** Chrome trace-event JSON ("X" complete events, microseconds). */
    std::string
    chromeJson(const std::string &process_name) const
    {
        int64_t t0 = spans_.empty() ? 0 : spans_.front().startNs;
        for (const Span &s : spans_)
            t0 = std::min(t0, s.startNs);
        std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
        out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
               "\"args\":{\"name\":\"" + jsonEscape(process_name) + "\"}}";
        for (const auto &[track, name] : trackNames_) {
            out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                   "\"tid\":" + std::to_string(track) +
                ",\"args\":{\"name\":\"" + jsonEscape(name) + "\"}}";
        }
        char buf[256];
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::snprintf(buf, sizeof buf,
                          ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                          "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                          "\"args\":{\"id\":%zu,\"parent\":%d,"
                          "\"request\":%lld}}",
                          jsonEscape(s.name).c_str(),
                          jsonEscape(layerOf(s.name)).c_str(), s.track,
                          static_cast<double>(s.startNs - t0) * 1e-3,
                          static_cast<double>(s.endNs - s.startNs) * 1e-3,
                          i, s.parent, static_cast<long long>(s.request));
            out += buf;
        }
        out += "\n]}\n";
        return out;
    }

    /** Write chromeJson() to `path`; false on I/O failure. */
    bool
    writeChromeJson(const std::string &path,
                    const std::string &process_name) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::string json = chromeJson(process_name);
        bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
        return std::fclose(f) == 0 && ok;
    }

  private:
    struct Span {
        std::string name;
        int64_t startNs = 0;
        int64_t endNs = 0;
        int parent = -1;
        int64_t request = -1;
        int track = 0;
    };

    bool
    descendsFrom(int id, int root) const
    {
        for (int cur = id; cur >= 0;
             cur = spans_[static_cast<size_t>(cur)].parent) {
            if (cur == root)
                return true;
        }
        return false;
    }

    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::map<int, std::string> trackNames_{{0, "benchmark"}};
};

} // namespace genesis::benchmark

#endif // GENESIS_BENCHMARK_SPAN_H
