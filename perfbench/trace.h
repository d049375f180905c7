#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory spans around the calls the benchmark makes into each layer.
// Spans are kept per recording thread and written out after the run; a
// disabled tracer records nothing and costs one branch per call site.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace atnn::perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // spans of one request (or chunk, day) share it
  int64_t start_ns = 0;  // since the tracer's epoch
  int64_t end_ns = 0;
  uint16_t name = 0;
  uint16_t thread = 0;
};

/// Per-name aggregate over a finished trace. Self time is a span's
/// duration minus the part of it its child spans cover.
struct SpanStats {
  std::string name;
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::vector<double> durations_us;
};

class Tracer {
 public:
  /// One recording thread's span log. Obtain with NewBuffer() before the
  /// thread starts recording; only that thread appends to it.
  class Buffer {
   public:
    void Reserve(size_t n) { spans_.reserve(n); }

   private:
    friend class Tracer;
    uint16_t thread_ = 0;
    std::vector<Span> spans_;
  };

  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Registers a span name; call during set-up, before threads record.
  uint16_t Intern(const std::string& name);

  Buffer* NewBuffer();

  /// A fresh span id (never 0), for a span whose children are recorded
  /// before it ends or on another thread.
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  /// Appends a finished span with a preallocated id; no-op when disabled.
  void RecordWithId(Buffer* buffer, uint64_t id, uint16_t name,
                    uint64_t request, uint64_t parent, Clock::time_point start,
                    Clock::time_point end) {
    if (!enabled_) return;
    buffer->spans_.push_back(Span{id, parent, request, Ns(start), Ns(end),
                                  name, buffer->thread_});
  }

  /// Appends a finished span and returns its id (0 when disabled).
  uint64_t Record(Buffer* buffer, uint16_t name, uint64_t request,
                  uint64_t parent, Clock::time_point start,
                  Clock::time_point end) {
    if (!enabled_) return 0;
    const uint64_t id = NewId();
    RecordWithId(buffer, id, name, request, parent, start, end);
    return id;
  }

  size_t num_spans() const;

  /// Per-name counts, total and self time, in first-registered order.
  std::vector<SpanStats> Aggregate() const;

  /// Writes every span as CSV (id,parent,request,name,thread,start_ns,
  /// end_ns). Returns false on an I/O error.
  bool WriteCsv(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mutex_;  // guards names_ and buffers_ (not spans)
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Records a span over its own lifetime: RAII for calls on one thread.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Tracer::Buffer* buffer, uint16_t name,
             uint64_t request, uint64_t parent)
      : tracer_(tracer),
        buffer_(buffer),
        name_(name),
        request_(request),
        parent_(parent),
        id_(tracer->enabled() ? tracer->NewId() : 0),
        start_(Clock::now()) {}

  ~ScopedSpan() {
    tracer_->RecordWithId(buffer_, id_, name_, request_, parent_, start_,
                          Clock::now());
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  Tracer::Buffer* buffer_;
  uint16_t name_;
  uint64_t request_;
  uint64_t parent_;
  uint64_t id_;
  Clock::time_point start_;
};

}  // namespace atnn::perfbench

#endif  // PERFBENCH_TRACE_H_
