#include "proc.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "trace.h"

namespace perfbench {

Child::~Child() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    Reap(5.0);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

bool Child::Spawn(const std::vector<std::string>& argv,
                  const std::vector<int>& cpus, std::string* error) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  cpu_set_t cpu_set;
  CPU_ZERO(&cpu_set);
  for (int cpu : cpus) CPU_SET(cpu, &cpu_set);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    if (!cpus.empty()) ::sched_setaffinity(0, sizeof(cpu_set), &cpu_set);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  pid_ = pid;
  out_fd_ = fds[0];
  return true;
}

bool Child::AwaitListening(double timeout_s, uint16_t* port,
                           std::string* error) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  char buf[4096];
  for (;;) {
    size_t nl;
    while ((nl = pending_.find('\n')) != std::string::npos) {
      const std::string line = pending_.substr(0, nl);
      pending_.erase(0, nl + 1);
      const std::string prefix = "listening on ";
      if (line.rfind(prefix, 0) == 0) {
        const size_t colon = line.rfind(':');
        if (colon == std::string::npos) break;
        *port = static_cast<uint16_t>(
            std::strtoul(line.c_str() + colon + 1, nullptr, 10));
        return *port != 0;
      }
    }
    const int64_t left_ms = (deadline - NowNs()) / 1000000;
    if (left_ms <= 0) {
      *error = "timed out waiting for the listening line";
      return false;
    }
    pollfd pfd{out_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(left_ms));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) continue;
    const ssize_t got = ::read(out_fd_, buf, sizeof(buf));
    if (got <= 0) {
      *error = "exited before listening";
      return false;
    }
    pending_.append(buf, static_cast<size_t>(got));
  }
}

double Child::CpuSeconds() const {
  if (pid_ <= 0) return 0.0;
  std::FILE* f = std::fopen(("/proc/" + std::to_string(pid_) + "/stat").c_str(), "r");
  if (f == nullptr) return 0.0;
  char buf[1024];
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  // Fields after the parenthesised command name: state is field 3,
  // utime and stime are fields 14 and 15.
  const char* p = std::strrchr(buf, ')');
  if (p == nullptr) return 0.0;
  unsigned long utime = 0, stime = 0;
  if (std::sscanf(p + 2, "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %lu %lu",
                  &utime, &stime) != 2) {
    return 0.0;
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

int Child::WaitExit(double timeout_s) { return Reap(timeout_s); }

int Child::Stop(double timeout_s) {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  return Reap(timeout_s);
}

int Child::Reap(double timeout_s) {
  if (pid_ <= 0) return -1;
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  // Drain the pipe to EOF so a child printing its final report can
  // never block on a full pipe before exiting.
  char buf[4096];
  bool killed = false;
  while (out_fd_ >= 0) {
    const int64_t left_ms = (deadline - NowNs()) / 1000000;
    if (left_ms <= 0 && !killed) {
      ::kill(pid_, SIGKILL);
      killed = true;
    }
    pollfd pfd{out_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, left_ms > 0 ? static_cast<int>(left_ms) : 100);
    if (rc < 0 && errno == EINTR) continue;
    if (rc == 0) continue;
    const ssize_t got = ::read(out_fd_, buf, sizeof(buf));
    if (got > 0) continue;
    if (got < 0 && errno == EINTR) continue;
    ::close(out_fd_);
    out_fd_ = -1;
  }
  int status = 0;
  rusage usage{};
  pid_t rc;
  do {
    rc = ::wait4(pid_, &status, 0, &usage);
  } while (rc < 0 && errno == EINTR);
  pid_ = -1;
  max_rss_kib_ = usage.ru_maxrss;
  if (killed || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

}  // namespace perfbench
