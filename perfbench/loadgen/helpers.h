// Pure helpers of the fannbench load generator: percentile rules, the seeded
// send schedule, the slow-class guard, per-layer subtractions and the
// STATS JSON field reader. Kept free of sockets and processes so that
// the helper tests can check them directly.

#ifndef PERFBENCH_HELPERS_H_
#define PERFBENCH_HELPERS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported tail value.
inline constexpr size_t kTailBeyond = 10;

/// Where the tail of `n` sorted samples sits: the highest percentile
/// that still has at least kTailBeyond samples beyond it.
struct TailRule {
  size_t index = 0;         ///< Rank of the tail sample (0-based, ascending).
  double percentile = 0.0;  ///< 100 * (index + 1) / n.
  size_t beyond = 0;        ///< Samples strictly after `index`.
};

/// The tail rule for `n` samples. With n <= kTailBeyond no sample has
/// ten beyond it; the rule then falls back to the maximum and reports
/// fewer than kTailBeyond samples beyond (zero).
TailRule TailOf(size_t n);

/// Median and tail of a latency sample set (any order).
struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;
  size_t tail_beyond = 0;
};
Summary Summarize(std::vector<double> samples);

/// Tail of a latency stream (in send order) cut into consecutive chunks
/// of `chunk` samples: the median over whole chunks of each chunk's
/// tail. Every chunk has the same sample count, so every chunk's tail
/// sits at the same percentile; the median keeps one stalled second on
/// a shared box from moving the result. `chunk` 0 or larger than the
/// stream means one chunk of everything.
struct ChunkedTail {
  double tail = 0.0;
  double percentile = 0.0;
  size_t chunk = 0;   ///< Samples per chunk.
  size_t chunks = 0;  ///< Whole chunks used.
};
ChunkedTail ChunkedTailOf(const std::vector<double>& in_order, size_t chunk);

/// Median over `slices` equal slices starting at `start_ns` of the
/// completions per second in each slice. `done_ns` lists completion
/// instants (any order); instants outside the slices are ignored.
double MedianSliceRate(const std::vector<int64_t>& done_ns, int64_t start_ns,
                       int64_t slice_ns, size_t slices);

/// Median (lower middle for even counts, so the value is a sample);
/// 0 for an empty set.
double Median(std::vector<double> samples);

/// Arithmetic mean; 0 for an empty set.
double Mean(const std::vector<double>& samples);

/// The open-loop plan of one paced phase, fixed before the run from the
/// seed: send offsets (seconds from phase start, ascending) and wave
/// offsets on fixed slots. Identical for equal arguments.
struct Schedule {
  std::vector<double> send_s;
  std::vector<double> wave_s;
};

/// `sends` sends spread over `duration_s`: slot i is centred at
/// (i + 0.5) * gap and jittered by up to +/- a quarter gap, so sends
/// never reorder and their count and positions repeat per seed. `waves`
/// slots sit at (k + 0.5) * duration_s / waves.
Schedule MakeSchedule(uint64_t seed, size_t sends, double duration_s,
                      size_t waves);

/// True when a slow-class share `share` cannot put the tail at
/// `tail_percentile` (or the median) on the edge between the fast and
/// the slow mode: the slow share must be under a third of the tail cut
/// (1 - percentile / 100) or over three times it, and must stay outside
/// [0.35, 0.65] so the median sits well inside one mode.
bool SlowShareClear(double share, double tail_percentile);

/// `total - part`, clamped into [0, total]: the share of an end-to-end
/// time left to the layers outside `part`. Two timings of one request
/// taken apart can overlap; clamping keeps the layer share well-formed.
double Remainder(double total, double part);

/// Reads the number stored under the quoted name `key`. With `within`
/// set, the search starts after the first occurrence of the quoted name
/// `within` (a histogram's fields follow its name). Used on STATS
/// snapshots, whose metric names are unique.
std::optional<double> JsonNumber(std::string_view json, std::string_view key,
                                 std::string_view within = {});

/// Sum and count of a STATS histogram (`"name": {"count": c, "mean": m}`).
struct HistogramTotals {
  double count = 0.0;
  double sum = 0.0;
};
HistogramTotals JsonHistogram(std::string_view json, std::string_view name);

/// Mean of the samples a histogram gained between two snapshots
/// (0 when it gained none).
double DeltaMean(const HistogramTotals& before, const HistogramTotals& after);

}  // namespace perfbench

#endif  // PERFBENCH_HELPERS_H_
