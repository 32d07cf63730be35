#include "obs/report.h"

#include <cstdio>

#include "obs/trace.h"

namespace fannr::obs {

namespace {

std::string Num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

std::string HistogramJson(const HistogramSnapshot& h, const std::string& pad) {
  std::string out = "{\n";
  out += pad + "  \"count\": " + std::to_string(h.count) + ",\n";
  out += pad + "  \"sum\": " + Num(h.sum) + ",\n";
  out += pad + "  \"min\": " + Num(h.min) + ",\n";
  out += pad + "  \"max\": " + Num(h.max) + ",\n";
  out += pad + "  \"mean\": " + Num(h.Mean()) + ",\n";
  out += pad + "  \"p50\": " + Num(h.Percentile(50)) + ",\n";
  out += pad + "  \"p95\": " + Num(h.Percentile(95)) + ",\n";
  out += pad + "  \"p99\": " + Num(h.Percentile(99)) + ",\n";
  out += pad + "  \"bounds\": [";
  for (size_t i = 0; i < h.bounds.size(); ++i) {
    out += std::string(i ? ", " : "") + Num(h.bounds[i]);
  }
  out += "],\n" + pad + "  \"counts\": [";
  for (size_t i = 0; i < h.counts.size(); ++i) {
    out += std::string(i ? ", " : "") + std::to_string(h.counts[i]);
  }
  out += "]\n" + pad + "}";
  return out;
}

}  // namespace

std::string BatchReport::ToText() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "batch: %zu queries (%zu rejected, %zu timed out), %zu "
                "threads, %.2f ms wall, %.1f queries/s\n",
                batch_size, rejected, timed_out, num_threads, wall_ms,
                queries_per_second);
  out += line;
  std::snprintf(line, sizeof(line),
                "solve latency ms: mean %.3f  p50 %.3f  p95 %.3f  p99 %.3f  "
                "max %.3f\n",
                solve_ms.Mean(), solve_ms.Percentile(50),
                solve_ms.Percentile(95), solve_ms.Percentile(99),
                solve_ms.max);
  out += line;
  const size_t lookups = cache.hits + cache.misses;
  std::snprintf(line, sizeof(line),
                "cache: %zu lookups (%zu hits / %zu misses, %.1f%% hit "
                "rate), %zu evictions (%zu epoch-stale), %zu resident\n",
                lookups, cache.hits, cache.misses,
                lookups == 0 ? 0.0
                             : 100.0 * static_cast<double>(cache.hits) /
                                   static_cast<double>(lookups),
                cache.evictions, cache.epoch_evictions, cache_entries);
  out += line;
  if (rejected_mid_batch > 0 || stale_index_fallbacks > 0) {
    std::snprintf(line, sizeof(line),
                  "dynamic: epoch %llu, %zu mid-batch rejections, %zu "
                  "stale-index fallbacks\n",
                  static_cast<unsigned long long>(graph_epoch),
                  rejected_mid_batch, stale_index_fallbacks);
    out += line;
  }
  std::snprintf(line, sizeof(line), "pool: %zu indices executed\n",
                pool_indices_executed);
  out += line;
  return out;
}

std::string BatchReport::ToJson(int indent) const {
  const std::string pad(static_cast<size_t>(indent), ' ');
  const std::string in = pad + "  ";
  std::string out = "{\n";
  if (!tag.empty()) {
    out += in + "\"tag\": \"" + internal_obs::JsonEscape(tag) + "\",\n";
  }
  out += in + "\"batch_size\": " + std::to_string(batch_size) + ",\n";
  out += in + "\"rejected\": " + std::to_string(rejected) + ",\n";
  out += in + "\"timed_out\": " + std::to_string(timed_out) + ",\n";
  out += in + "\"rejected_mid_batch\": " + std::to_string(rejected_mid_batch) +
         ",\n";
  out += in + "\"num_threads\": " + std::to_string(num_threads) + ",\n";
  out += in + "\"graph_epoch\": " + std::to_string(graph_epoch) + ",\n";
  out += in + "\"stale_index_fallbacks\": " +
         std::to_string(stale_index_fallbacks) + ",\n";
  out += in + "\"wall_ms\": " + Num(wall_ms) + ",\n";
  out += in + "\"queries_per_second\": " + Num(queries_per_second) + ",\n";
  out += in + "\"solve_ms\": " + HistogramJson(solve_ms, in) + ",\n";
  out += in + "\"cache\": {\"hits\": " + std::to_string(cache.hits) +
         ", \"misses\": " + std::to_string(cache.misses) +
         ", \"lookups\": " + std::to_string(cache.hits + cache.misses) +
         ", \"evictions\": " + std::to_string(cache.evictions) +
         ", \"epoch_evictions\": " + std::to_string(cache.epoch_evictions) +
         ", \"narrow_misses\": " + std::to_string(cache.narrow_misses) +
         ", \"bounded_rows\": " + std::to_string(cache.bounded_rows) +
         ", \"pruned_rows\": " + std::to_string(cache.pruned_rows) +
         ", \"resident_entries\": " + std::to_string(cache_entries) + "},\n";
  out += in + "\"attributed_cache_hits\": " +
         std::to_string(attributed_cache_hits) + ",\n";
  out += in + "\"attributed_cache_misses\": " +
         std::to_string(attributed_cache_misses) + ",\n";
  out += in + "\"pool_indices_executed\": " +
         std::to_string(pool_indices_executed) + ",\n";
  out += in + "\"counters\": {";
  for (size_t i = 0; i < metrics.counters.size(); ++i) {
    out += std::string(i ? ", " : "") + "\"" +
           internal_obs::JsonEscape(metrics.counters[i].first) +
           "\": " + std::to_string(metrics.counters[i].second);
  }
  out += "},\n";
  out += in + "\"gauges\": {";
  for (size_t i = 0; i < metrics.gauges.size(); ++i) {
    out += std::string(i ? ", " : "") + "\"" +
           internal_obs::JsonEscape(metrics.gauges[i].first) +
           "\": " + Num(metrics.gauges[i].second);
  }
  out += "},\n";
  out += in + "\"histograms\": {";
  for (size_t i = 0; i < metrics.histograms.size(); ++i) {
    out += std::string(i ? ",\n" : "\n") + in + "  \"" +
           internal_obs::JsonEscape(metrics.histograms[i].first) +
           "\": " + HistogramJson(metrics.histograms[i].second, in + "  ");
  }
  out += metrics.histograms.empty() ? "}" : "\n" + in + "}";
  out += "\n" + pad + "}";
  return out;
}

}  // namespace fannr::obs
