#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace atnn::perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

uint16_t Tracer::Intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint16_t>(i);
  }
  names_.push_back(name);
  return static_cast<uint16_t>(names_.size() - 1);
}

Tracer::Buffer* Tracer::NewBuffer() {
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.push_back(std::make_unique<Buffer>());
  buffers_.back()->thread_ = static_cast<uint16_t>(buffers_.size() - 1);
  return buffers_.back().get();
}

size_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->spans_.size();
  return n;
}

std::vector<SpanStats> Tracer::Aggregate() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const Span*> spans;
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans_) spans.push_back(&span);
  }
  std::unordered_map<uint64_t, size_t> index_of;
  index_of.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i]->id] = i;

  // Child intervals grouped by parent, clipped to the parent's interval.
  struct Child {
    size_t parent;
    int64_t start;
    int64_t end;
  };
  std::vector<Child> children;
  for (const Span* span : spans) {
    if (span->parent == 0) continue;
    const auto it = index_of.find(span->parent);
    if (it == index_of.end()) continue;
    const Span& parent = *spans[it->second];
    const int64_t start = std::max(span->start_ns, parent.start_ns);
    const int64_t end = std::min(span->end_ns, parent.end_ns);
    if (end > start) children.push_back({it->second, start, end});
  }
  std::sort(children.begin(), children.end(),
            [](const Child& a, const Child& b) {
              return a.parent != b.parent ? a.parent < b.parent
                                          : a.start < b.start;
            });
  std::vector<int64_t> covered(spans.size(), 0);
  for (size_t i = 0; i < children.size();) {
    const size_t parent = children[i].parent;
    int64_t run_start = children[i].start;
    int64_t run_end = children[i].end;
    for (++i; i < children.size() && children[i].parent == parent; ++i) {
      if (children[i].start > run_end) {
        covered[parent] += run_end - run_start;
        run_start = children[i].start;
      }
      run_end = std::max(run_end, children[i].end);
    }
    covered[parent] += run_end - run_start;
  }

  std::vector<SpanStats> stats(names_.size());
  for (size_t i = 0; i < names_.size(); ++i) stats[i].name = names_[i];
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanStats& entry = stats[spans[i]->name];
    const int64_t duration = spans[i]->end_ns - spans[i]->start_ns;
    ++entry.count;
    entry.total_ms += static_cast<double>(duration) * 1e-6;
    entry.self_ms += static_cast<double>(duration - covered[i]) * 1e-6;
    entry.durations_us.push_back(static_cast<double>(duration) * 1e-3);
  }
  return stats;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "id,parent,request,name,thread,start_ns,end_ns\n");
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans_) {
      std::fprintf(file, "%llu,%llu,%llu,%s,%u,%lld,%lld\n",
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   static_cast<unsigned long long>(span.request),
                   names_[span.name].c_str(),
                   static_cast<unsigned>(span.thread),
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns));
    }
  }
  return std::fclose(file) == 0;
}

}  // namespace atnn::perfbench
