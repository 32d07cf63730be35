// fannr — Flexible Aggregate Nearest Neighbor queries in road networks.
//
// Umbrella header for the public API. A minimal end-to-end use:
//
//   fannr::Graph graph = fannr::BuildPreset("DE");
//   fannr::Rng rng(42);
//   fannr::IndexedVertexSet p(graph.NumVertices(),
//                             fannr::GenerateDataPoints(graph, 0.001, rng));
//   fannr::IndexedVertexSet q(graph.NumVertices(),
//       fannr::GenerateUniformQueryPoints(graph, 0.10, 128, rng));
//   fannr::FannQuery query{&graph, &p, &q, 0.5, fannr::Aggregate::kSum};
//   auto engine = fannr::MakeGphiEngine(fannr::GphiKind::kIne, {&graph});
//   fannr::FannResult answer = fannr::SolveGd(query, *engine);
//
// Building an IndexedVertexSet costs O(|set|) time and memory, independent
// of |V|, so a fresh P and Q per query is cheap.
//
// See README.md for the full tour and DESIGN.md for the architecture.

#ifndef FANNR_FANN_FANNR_H_
#define FANNR_FANN_FANNR_H_

#include "engine/batch_engine.h" // IWYU pragma: export
#include "fann/aggregate.h"      // IWYU pragma: export
#include "fann/apx_sum.h"        // IWYU pragma: export
#include "fann/dispatch.h"       // IWYU pragma: export
#include "fann/exact_max.h"      // IWYU pragma: export
#include "fann/extensions.h"     // IWYU pragma: export
#include "fann/gd.h"             // IWYU pragma: export
#include "fann/gphi.h"           // IWYU pragma: export
#include "fann/ier.h"            // IWYU pragma: export
#include "fann/kfann.h"          // IWYU pragma: export
#include "fann/naive.h"          // IWYU pragma: export
#include "fann/query.h"          // IWYU pragma: export
#include "fann/rlist.h"          // IWYU pragma: export
#include "graph/builder.h"       // IWYU pragma: export
#include "graph/components.h"    // IWYU pragma: export
#include "graph/generator.h"     // IWYU pragma: export
#include "graph/io.h"            // IWYU pragma: export
#include "graph/presets.h"       // IWYU pragma: export
#include "graph/vertex_set.h"    // IWYU pragma: export
#include "workload/poi.h"        // IWYU pragma: export
#include "workload/workload.h"   // IWYU pragma: export

#endif  // FANNR_FANN_FANNR_H_
