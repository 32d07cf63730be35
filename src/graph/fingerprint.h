// Structural identity of a graph, split into its own header so the
// index-file layer (graph/index_io.h) can name it without pulling in
// the full Graph definition.

#ifndef FANNR_GRAPH_FINGERPRINT_H_
#define FANNR_GRAPH_FINGERPRINT_H_

#include <cstdint>

namespace fannr {

/// Structural identity of a graph: vertex count, edge count, and an
/// order-independent checksum over every arc's (endpoints, weight). Two
/// graphs with equal fingerprints hold the same weighted edge set with
/// overwhelming probability; a single weight update changes the
/// checksum. Persisted index files store the fingerprint of the graph
/// they were built against so LoadMmap can reject files saved against a
/// different (or since-updated) network instead of serving wrong
/// distances.
struct GraphFingerprint {
  uint64_t vertices = 0;
  uint64_t edges = 0;
  uint64_t weight_checksum = 0;

  friend bool operator==(const GraphFingerprint&,
                         const GraphFingerprint&) = default;
};

}  // namespace fannr

#endif  // FANNR_GRAPH_FINGERPRINT_H_
