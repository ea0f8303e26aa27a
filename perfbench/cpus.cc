#include "perfbench/cpus.h"

#include <dirent.h>
#include <sched.h>

#include <cerrno>
#include <cstdlib>

namespace hnsbench {

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return cpus;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpus.push_back(cpu);
    }
  }
  return cpus;
}

bool PinProcess(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  DIR* tasks = opendir("/proc/self/task");
  if (tasks == nullptr) {
    return sched_setaffinity(0, sizeof(set), &set) == 0;
  }
  bool moved = true;
  while (dirent* entry = readdir(tasks)) {
    if (entry->d_name[0] == '.') {
      continue;
    }
    // A thread that has exited since the listing is not an error.
    pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (sched_setaffinity(tid, sizeof(set), &set) != 0 && errno != ESRCH) {
      moved = false;
    }
  }
  closedir(tasks);
  return moved;
}

bool CpuRotation::Next() {
  if (cpus_.empty() || !PinProcess({cpus_[next_++ % cpus_.size()]})) {
    ++failures_;
    return false;
  }
  return true;
}

}  // namespace hnsbench
