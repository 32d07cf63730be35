// Serving processes of one benchmark fleet: spawned from the built
// binaries with stdout on a pipe, considered ready once they print
// "listening on HOST:PORT", stopped with SIGTERM and reaped with
// wait4 so their peak RSS is known. A Child that goes out of scope
// still alive is killed and reaped, so no process outlives the run.

#ifndef PERFBENCH_PROC_H_
#define PERFBENCH_PROC_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Spawns `argv` (argv[0] is the binary path), confined to `cpus`
  /// when that is non-empty. Output lines go to the pipe this object
  /// reads; stderr is inherited.
  bool Spawn(const std::vector<std::string>& argv, const std::vector<int>& cpus,
             std::string* error);

  /// Reads output until a "listening on HOST:PORT" line; false on EOF
  /// or after `timeout_s`.
  bool AwaitListening(double timeout_s, uint16_t* port, std::string* error);

  /// Waits for the process to exit on its own (up to `timeout_s`, then
  /// SIGKILL); returns its exit code (-1 when killed).
  int WaitExit(double timeout_s);

  /// SIGTERM, drain the output pipe to EOF (up to `timeout_s`, then
  /// SIGKILL), reap. Returns the exit code (-1 when killed).
  int Stop(double timeout_s);

  /// CPU time (user + system, all threads) the live process has used so
  /// far, in seconds; host steal is not charged to it. 0 when unknown.
  double CpuSeconds() const;
  /// Peak resident set of the reaped process, in KiB (0 before reaping).
  long max_rss_kib() const { return max_rss_kib_; }

 private:
  int Reap(double timeout_s);

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string pending_;
  long max_rss_kib_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROC_H_
