// In-memory span recorder of the traced run. Spans wrap fannbench's
// own calls into the program's public functions (frame send, response
// decode, in-process engine runs, solver calls, update application,
// shard split and merge); nothing inside the program is instrumented.
// A disabled tracer records nothing, so the untraced runs pay one
// branch per span site.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span; returns its handle (-1 when disabled). `name` must be
  /// a string literal: spans keep the pointer.
  int64_t Begin(const char* name, int64_t parent = -1, uint64_t request = 0) {
    if (!enabled_) return -1;
    spans_.push_back({name, NowNs(), 0, parent, request});
    return static_cast<int64_t>(spans_.size() - 1);
  }

  void End(int64_t span) {
    if (span >= 0) spans_[static_cast<size_t>(span)].end_ns = NowNs();
  }

  /// Records a finished span with given bounds (request spans start at
  /// their scheduled send, not at the call).
  int64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent = -1, uint64_t request = 0) {
    if (!enabled_) return -1;
    spans_.push_back({name, start_ns, end_ns, parent, request});
    return static_cast<int64_t>(spans_.size() - 1);
  }

  /// Durations in milliseconds of every closed span named `name`.
  std::vector<double> DurationsMs(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.end_ns >= s.start_ns && s.end_ns != 0 && name == s.name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
      }
    }
    return out;
  }

  /// Writes every span as one JSON object per line.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %lld, \"request\": %llu}\n",
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;
    uint64_t request;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
