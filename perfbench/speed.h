#ifndef PERFBENCH_SPEED_H_
#define PERFBENCH_SPEED_H_

// Host speed, and where the benchmark's threads run.
//
// Each vCPU of a shared host changes speed for seconds at a time,
// independently of the others: a fixed loop pinned to one vCPU takes 38 ms
// in one stretch and 60 to 65 ms in the next. A run that lands in a slow
// stretch reads up to 1.7x slower than one that does not, on the same code.
// Timings the benchmark bounds are therefore taken at reference speed: the
// wall or CPU time of the work, times a nominal time over the time a fixed
// reference computation of the same kind (the benchmark's own code, so no
// change to the program moves it) takes on the same vCPU just before and
// after the work.

#include <sched.h>

#include <chrono>
#include <cstddef>
#include <vector>

namespace atnn::perfbench {

/// What the reference computation takes on a vCPU of the machine the
/// benchmark was written on (Intel Xeon, AVX2), so that a reference-speed
/// time reads about as wall time there.
inline constexpr double kNominalComputeUs = 140.0;

/// The compute reference: a fixed 48x48 float matrix product, repeated,
/// the forward's and the trainer's kind of work. Returns its time on the
/// calling thread in microseconds, the fastest of a few samples, so an
/// interrupt inside one sample does not count.
double ComputeReferenceUs();

/// CPU time used so far by every thread of this process, in microseconds.
/// Time the host runs another guest on a vCPU (steal) is not counted when
/// the kernel accounts paravirtual steal time, as KVM guests do.
double ProcessCpuUs();

/// The factor that turns a wall time measured between two samples of a
/// reference into reference speed: its nominal time over their mean.
double ReferenceScale(double nominal_us, double before_us, double after_us);

/// Runs `work` on the calling thread and returns its wall time in seconds
/// at compute reference speed, the reference taken just before and after.
template <typename Work>
double SecondsAtReferenceSpeed(Work&& work) {
  const double before_us = ComputeReferenceUs();
  const auto start = std::chrono::steady_clock::now();
  work();
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  return seconds *
         ReferenceScale(kNominalComputeUs, before_us, ComputeReferenceUs());
}

/// Pins threads of this process to the CPUs the calling thread may use
/// when it is made. The destructor gives every thread it moved that whole
/// set back (threads that have exited since are skipped).
class CpuPlacement {
 public:
  CpuPlacement();
  ~CpuPlacement();

  CpuPlacement(const CpuPlacement&) = delete;
  CpuPlacement& operator=(const CpuPlacement&) = delete;

  /// Number of CPUs the calling thread could use at construction.
  size_t size() const { return cpus_.size(); }

  /// Pins the calling thread to the i-th CPU, round robin.
  void PinCaller(size_t i) { Pin(0, i); }

  /// Pins thread `tid` to the i-th CPU, round robin.
  void Pin(int tid, size_t i);

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::vector<int> moved_;  // thread ids, 0 for the caller
};

/// Pins the calling thread to the first CPU and every other thread the
/// process has at construction to the others, one each while they last, so
/// that work handed to those threads runs on CPUs whose reference time is
/// known. Threads started later are not pinned; the destructor unpins.
/// Construct, use and destroy on one thread.
class PinnedThreads {
 public:
  PinnedThreads();

  size_t others() const { return others_; }

  /// Takes the compute reference on the caller's CPU and on the others'
  /// CPUs (their mean). Call it before and after the work it scales.
  void TakeReference();

  /// ReferenceScale for work done between the i-th and (i+1)-th
  /// TakeReference: work by the calling thread or by the others.
  double CallerScale(size_t i) const {
    return ReferenceScale(kNominalComputeUs, caller_us_[i], caller_us_[i + 1]);
  }
  double OthersScale(size_t i) const {
    return ReferenceScale(kNominalComputeUs, others_us_[i], others_us_[i + 1]);
  }

  /// Every compute reference taken on the others' CPUs, in order.
  const std::vector<double>& others_reference_us() const { return others_us_; }

 private:
  CpuPlacement placement_;
  size_t others_ = 0;
  std::vector<size_t> other_cpus_;
  std::vector<double> caller_us_;
  std::vector<double> others_us_;
};

}  // namespace atnn::perfbench

#endif  // PERFBENCH_SPEED_H_
