#include "speed.h"

#include <dirent.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <limits>
#include <vector>

namespace atnn::perfbench {

namespace {

constexpr int kN = 48;
constexpr int kRepeats = 24;
constexpr int kSamples = 5;

/// c += a * b for kN x kN row-major matrices.
void MultiplyAdd(const float* a, const float* b, float* c) {
  for (int i = 0; i < kN; ++i) {
    for (int k = 0; k < kN; ++k) {
      const float aik = a[i * kN + k];
      for (int j = 0; j < kN; ++j) c[i * kN + j] += aik * b[k * kN + j];
    }
  }
}

}  // namespace

double ComputeReferenceUs() {
  alignas(64) float a[kN * kN];
  alignas(64) float b[kN * kN];
  alignas(64) float c[kN * kN] = {};
  // Small exact values: no subnormals, no overflow over every repeat.
  for (int i = 0; i < kN * kN; ++i) {
    a[i] = static_cast<float>((i * 7) % 17 - 8) / 64.0f;
    b[i] = static_cast<float>((i * 5) % 13 - 6) / 64.0f;
  }
  double best = std::numeric_limits<double>::infinity();
  for (int s = 0; s < kSamples; ++s) {
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < kRepeats; ++r) {
      MultiplyAdd(a, b, c);
      // Each repeat must really run: the product is observed in between.
      asm volatile("" : : "r"(c) : "memory");
    }
    const auto end = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::micro>(end - start).count());
  }
  return best;
}

double ProcessCpuUs() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) * 1e6 +
         static_cast<double>(now.tv_nsec) * 1e-3;
}

double ReferenceScale(double nominal_us, double before_us,
                      double after_us) {
  return nominal_us / std::max(0.5 * (before_us + after_us), 1e-3);
}

CpuPlacement::CpuPlacement() {
  CPU_ZERO(&allowed_);
  if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
  }
}

CpuPlacement::~CpuPlacement() {
  for (const int tid : moved_) {
    sched_setaffinity(tid, sizeof(allowed_), &allowed_);
  }
}

void CpuPlacement::Pin(int tid, size_t i) {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[i % cpus_.size()], &one);
  // A refused pin leaves the thread where it is: only the spread of the
  // timings suffers.
  if (sched_setaffinity(tid, sizeof(one), &one) != 0) return;
  if (std::find(moved_.begin(), moved_.end(), tid) == moved_.end()) {
    moved_.push_back(tid);
  }
}

PinnedThreads::PinnedThreads() {
  placement_.PinCaller(0);
  const int self = static_cast<int>(syscall(SYS_gettid));
  std::vector<int> tids;
  if (DIR* tasks = opendir("/proc/self/task")) {
    while (const dirent* entry = readdir(tasks)) {
      const int tid = std::atoi(entry->d_name);
      if (tid > 0 && tid != self) tids.push_back(tid);
    }
    closedir(tasks);
  }
  std::sort(tids.begin(), tids.end());
  others_ = tids.size();
  const size_t spare = placement_.size() > 1 ? placement_.size() - 1 : 1;
  for (size_t t = 0; t < tids.size(); ++t) {
    const size_t cpu = placement_.size() > 1 ? 1 + t % spare : 0;
    placement_.Pin(tids[t], cpu);
    if (std::find(other_cpus_.begin(), other_cpus_.end(), cpu) ==
        other_cpus_.end()) {
      other_cpus_.push_back(cpu);
    }
  }
  if (other_cpus_.empty()) other_cpus_.push_back(0);
}

void PinnedThreads::TakeReference() {
  double sum = 0.0;
  for (const size_t cpu : other_cpus_) {
    placement_.PinCaller(cpu);
    sum += ComputeReferenceUs();
  }
  placement_.PinCaller(0);
  others_us_.push_back(sum / static_cast<double>(other_cpus_.size()));
  caller_us_.push_back(ComputeReferenceUs());
}

}  // namespace atnn::perfbench
