#include "helpers.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>

#include "common/rng.h"

namespace perfbench {

TailRule TailOf(size_t n) {
  TailRule rule;
  if (n == 0) return rule;
  if (n <= kTailBeyond) {
    rule.index = n - 1;
  } else {
    rule.index = n - kTailBeyond - 1;
  }
  rule.beyond = n - rule.index - 1;
  rule.percentile = 100.0 * static_cast<double>(rule.index + 1) /
                    static_cast<double>(n);
  return rule;
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = samples[(samples.size() - 1) / 2];
  const TailRule rule = TailOf(samples.size());
  s.tail = samples[rule.index];
  s.tail_percentile = rule.percentile;
  s.tail_beyond = rule.beyond;
  return s;
}

ChunkedTail ChunkedTailOf(const std::vector<double>& in_order, size_t chunk) {
  ChunkedTail out;
  if (in_order.empty()) return out;
  if (chunk == 0 || chunk > in_order.size()) chunk = in_order.size();
  std::vector<double> tails;
  for (size_t begin = 0; begin + chunk <= in_order.size(); begin += chunk) {
    const Summary s = Summarize(std::vector<double>(
        in_order.begin() + static_cast<ptrdiff_t>(begin),
        in_order.begin() + static_cast<ptrdiff_t>(begin + chunk)));
    tails.push_back(s.tail);
    out.percentile = s.tail_percentile;
  }
  out.tail = Median(tails);
  out.chunk = chunk;
  out.chunks = tails.size();
  return out;
}

double MedianSliceRate(const std::vector<int64_t>& done_ns, int64_t start_ns,
                       int64_t slice_ns, size_t slices) {
  if (slices == 0 || slice_ns <= 0) return 0.0;
  std::vector<double> counts(slices, 0.0);
  for (int64_t t : done_ns) {
    if (t < start_ns) continue;
    const int64_t k = (t - start_ns) / slice_ns;
    if (k < static_cast<int64_t>(slices)) counts[static_cast<size_t>(k)] += 1.0;
  }
  for (double& c : counts) c /= static_cast<double>(slice_ns) / 1e9;
  return Median(counts);
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const size_t mid = (samples.size() - 1) / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  return samples[mid];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

Schedule MakeSchedule(uint64_t seed, size_t sends, double duration_s,
                      size_t waves) {
  Schedule schedule;
  fannr::Rng rng(seed ^ 0x5C4ED01EULL);
  if (sends > 0) {
    const double gap = duration_s / static_cast<double>(sends);
    schedule.send_s.reserve(sends);
    for (size_t i = 0; i < sends; ++i) {
      const double jitter = rng.NextDouble(-0.25, 0.25);
      schedule.send_s.push_back((static_cast<double>(i) + 0.5 + jitter) *
                                gap);
    }
  }
  for (size_t k = 0; k < waves; ++k) {
    schedule.wave_s.push_back((static_cast<double>(k) + 0.5) * duration_s /
                              static_cast<double>(waves));
  }
  return schedule;
}

bool SlowShareClear(double share, double tail_percentile) {
  if (share > 0.35 && share < 0.65) return false;
  const double cut = 1.0 - tail_percentile / 100.0;
  return share * 3.0 <= cut || share >= cut * 3.0;
}

double Remainder(double total, double part) {
  if (!(total > 0.0)) return 0.0;
  return std::clamp(total - part, 0.0, total);
}

std::optional<double> JsonNumber(std::string_view json, std::string_view key,
                                 std::string_view within) {
  auto quote = [](std::string_view name) {
    std::string q;
    q.reserve(name.size() + 2);
    q.push_back('"');
    q.append(name);
    q.push_back('"');
    return q;
  };
  size_t from = 0;
  if (!within.empty()) {
    const std::string quoted_scope = quote(within);
    from = json.find(quoted_scope);
    if (from == std::string_view::npos) return std::nullopt;
    from += quoted_scope.size();
  }
  const std::string quoted = quote(key);
  size_t at = json.find(quoted, from);
  if (at == std::string_view::npos) return std::nullopt;
  at = json.find(':', at + quoted.size());
  if (at == std::string_view::npos) return std::nullopt;
  const std::string tail(json.substr(at + 1, 64));
  const char* begin = tail.c_str();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end == begin) return std::nullopt;
  return value;
}

HistogramTotals JsonHistogram(std::string_view json, std::string_view name) {
  HistogramTotals totals;
  const std::optional<double> count = JsonNumber(json, "count", name);
  const std::optional<double> mean = JsonNumber(json, "mean", name);
  if (count && mean) {
    totals.count = *count;
    totals.sum = *count * *mean;
  }
  return totals;
}

double DeltaMean(const HistogramTotals& before, const HistogramTotals& after) {
  const double count = after.count - before.count;
  if (!(count > 0.0)) return 0.0;
  return std::max(0.0, (after.sum - before.sum) / count);
}

}  // namespace perfbench
