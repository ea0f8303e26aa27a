// Confining the whole process to one CPU at a time.
//
// On a shared VM a thread woken on another vCPU waits for a delay the host
// decides, so the benchmark keeps every thread on one CPU: each hand-off is
// a same-CPU context switch. But one vCPU's speed also changes with what
// the host runs beside it, by a factor of two or more within seconds and
// independently of the others. So a run moves the process from CPU to CPU,
// one set-up or timed slice on each, and its medians span all of them.

#ifndef PERFBENCH_CPUS_H_
#define PERFBENCH_CPUS_H_

#include <cstddef>
#include <vector>

namespace hnsbench {

// The CPUs the calling thread may run on, in ascending order.
std::vector<int> AllowedCpus();

// Confines every thread of the process to `cpus`; threads started later
// inherit it from their creator. False if any thread could not be moved.
bool PinProcess(const std::vector<int>& cpus);

// Moves the process round-robin over the CPUs it was allowed when the
// rotation was made, and gives it all of them back when destroyed.
class CpuRotation {
 public:
  CpuRotation() : cpus_(AllowedCpus()) {}
  ~CpuRotation() { PinProcess(cpus_); }

  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Pins the process to the next CPU.
  bool Next();
  int failures() const { return failures_; }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
  int failures_ = 0;
};

}  // namespace hnsbench

#endif  // PERFBENCH_CPUS_H_
