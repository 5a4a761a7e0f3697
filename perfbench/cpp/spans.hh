/**
 * @file
 * In-memory spans for the traced run.
 *
 * A span is one call from the benchmark into a layer of the program:
 * a name ("<layer>.<call>"), start and end on the host clock, the
 * span that caused it, and the id of the request it belongs to (a
 * sweep pass, an analysis pass, a service rate step). Each thread
 * records into its own SpanBuffer; the buffers are merged when the
 * run ends and written out as JSON lines. With tracing off there are
 * no buffers and recording costs one null check.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "measure.hh"

namespace perfbench
{

struct Span
{
    const char* name = "";     //!< static string, "<layer>.<call>"
    std::uint64_t request = 0; //!< spans of one request share it
    std::uint32_t id = 0;      //!< unique, > 0
    std::uint32_t parent = 0;  //!< 0 = root
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
};

class Tracer;

/** One thread's spans. */
class SpanBuffer
{
  public:
    explicit SpanBuffer(Tracer& tracer) : tracer_(tracer) {}

    /** Record a finished span; returns its id. */
    std::uint32_t add(const char* name, std::uint64_t request,
                      std::uint32_t parent, std::uint64_t start_ns,
                      std::uint64_t end_ns);

    /** Reserve an id for a span that is still open (its children
     *  need it as their parent). */
    std::uint32_t reserveId();

    /** Record a span under an id from reserveId(). */
    void addWithId(std::uint32_t id, const char* name,
                   std::uint64_t request, std::uint32_t parent,
                   std::uint64_t start_ns, std::uint64_t end_ns);

    /** Make room for @p n more spans, so recording them never
     *  reallocates (a reallocation stalls the recording thread). */
    void reserveMore(std::size_t n) { spans_.reserve(spans_.size() + n); }

  private:
    friend class Tracer;
    Tracer& tracer_;
    std::vector<Span> spans_;
};

/** Owner of every SpanBuffer of a run. */
class Tracer
{
  public:
    /** A fresh buffer for the calling thread; lives as long as the
     *  tracer. */
    SpanBuffer& newBuffer();

    std::uint32_t nextId() { return next_id_.fetch_add(1) + 1; }

    /** All spans of all buffers, by start time. */
    std::vector<Span> merged() const;

  private:
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<SpanBuffer>> buffers_;
    std::atomic<std::uint32_t> next_id_{0};
};

/** RAII span: records [construction, destruction) into @p buf when
 *  @p buf is non-null; does nothing otherwise. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanBuffer* buf, const char* name, std::uint64_t request,
               std::uint32_t parent)
        : buf_(buf), name_(name), request_(request), parent_(parent)
    {
        if (buf_) {
            id_ = buf_->reserveId();
            start_ns_ = nowNs();
        }
    }
    ~ScopedSpan()
    {
        if (buf_)
            buf_->addWithId(id_, name_, request_, parent_, start_ns_,
                            nowNs());
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    /** This span's id, for children (0 with tracing off). */
    std::uint32_t id() const { return id_; }

  private:
    SpanBuffer* buf_;
    const char* name_;
    std::uint64_t request_;
    std::uint32_t parent_;
    std::uint32_t id_ = 0;
    std::uint64_t start_ns_ = 0;
};

/** Per-name totals over a set of spans. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double busy_s = 0.0;  //!< sum of durations
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by the union of its children's intervals
 * (children may run on other threads and overlap each other).
 * Indexed like @p spans.
 */
std::vector<double> selfSeconds(const std::vector<Span>& spans);

/** Totals per span name. */
std::map<std::string, SpanTotals> totalsByName(
        const std::vector<Span>& spans);

/** Self time summed per layer (the name up to its first '.'). */
std::map<std::string, double> selfByLayer(const std::vector<Span>& spans);

/** Write @p spans as JSON lines, times relative to @p origin_ns. */
bool writeSpans(const std::string& path, const std::vector<Span>& spans,
                std::uint64_t origin_ns);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
