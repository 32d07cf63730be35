#include "testing/scenario.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "common/check.h"
#include "common/rng.h"
#include "graph/builder.h"
#include "graph/generator.h"

namespace fannr::testing {

namespace {

// Appends every vertex and edge of `part` to `builder`, translating
// coordinates by (dx, dy). Returns the id offset the part's vertices got.
VertexId AppendComponent(GraphBuilder& builder, const Graph& part,
                         double dx, double dy) {
  const VertexId offset = static_cast<VertexId>(builder.NumVertices());
  for (VertexId v = 0; v < part.NumVertices(); ++v) {
    Point c = part.Coord(v);
    c.x += dx;
    c.y += dy;
    builder.AddVertex(c);
  }
  for (VertexId u = 0; u < part.NumVertices(); ++u) {
    for (const Arc& arc : part.Neighbors(u)) {
      if (u < arc.to) {
        builder.AddEdge(offset + u, offset + arc.to, arc.weight);
      }
    }
  }
  return offset;
}

double MaxX(const Graph& graph) {
  double max_x = 0.0;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    max_x = std::max(max_x, graph.Coord(v).x);
  }
  return max_x;
}

// A perfectly regular grid: every edge weight is exactly `cell`, so
// aggregate distances are small exact multiples of it and distance ties
// are bitwise-equal — the shape that exposes tie-breaking bugs. Built
// directly (not via GenerateGridNetwork, which perturbs every weight by
// +1e-9 to keep generated weights strictly above the Euclidean bound —
// that perturbation would destroy the exact ties this shape exists for).
Graph MakeTieGrid(size_t rows, size_t cols, Rng&) {
  const double cell = 1000.0;
  GraphBuilder builder;
  auto id = [cols](size_t r, size_t c) {
    return static_cast<VertexId>(r * cols + c);
  };
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      builder.AddVertex({static_cast<double>(c) * cell,
                         static_cast<double>(r) * cell});
    }
  }
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) builder.AddEdge(id(r, c), id(r, c + 1), cell);
      if (r + 1 < rows) builder.AddEdge(id(r, c), id(r + 1, c), cell);
    }
  }
  return builder.Build();
}

Graph MakeJitteredGrid(size_t rows, size_t cols, Rng& rng) {
  GridNetworkOptions options;
  options.rows = rows;
  options.cols = cols;
  return GenerateGridNetwork(options, rng);
}

Graph MakeGeometric(size_t n, Rng& rng) {
  GeometricNetworkOptions options;
  options.num_vertices = n;
  options.extent = 10000.0;
  options.radius = options.extent * std::sqrt(2.5 / static_cast<double>(n));
  return GenerateGeometricNetwork(options, rng);
}

// Samples `count` distinct vertices; when `overlap_with` is non-null,
// roughly half of the sample is drawn from it first (duplicated P∩Q
// membership is a prime source of zero-distance ties).
std::vector<VertexId> SampleSet(size_t num_vertices, size_t count, Rng& rng,
                                const std::vector<VertexId>* overlap_with) {
  count = std::min(count, num_vertices);
  std::vector<VertexId> picked;
  std::vector<bool> used(num_vertices, false);
  if (overlap_with != nullptr && !overlap_with->empty()) {
    std::vector<VertexId> pool = *overlap_with;
    rng.Shuffle(pool);
    const size_t want = std::min(pool.size(), (count + 1) / 2);
    for (size_t i = 0; i < want; ++i) {
      if (!used[pool[i]]) {
        used[pool[i]] = true;
        picked.push_back(pool[i]);
      }
    }
  }
  while (picked.size() < count) {
    const VertexId v = static_cast<VertexId>(rng.NextIndex(num_vertices));
    if (!used[v]) {
      used[v] = true;
      picked.push_back(v);
    }
  }
  return picked;
}

}  // namespace

Scenario GenerateScenario(uint64_t seed) {
  Rng rng(seed);
  Scenario scenario;
  scenario.seed = seed;

  // Graph shape. The disconnected variants are essential: they exercise
  // the solver paths where some query points cannot reach any data point.
  const int shape = static_cast<int>(rng.NextIndex(5));
  std::shared_ptr<Graph> graph;
  switch (shape) {
    case 0: {
      const size_t rows = 3 + rng.NextIndex(5);
      const size_t cols = 3 + rng.NextIndex(5);
      graph = std::make_shared<Graph>(MakeTieGrid(rows, cols, rng));
      scenario.note = "tie-grid";
      break;
    }
    case 1: {
      const size_t rows = 3 + rng.NextIndex(6);
      const size_t cols = 3 + rng.NextIndex(6);
      graph = std::make_shared<Graph>(MakeJitteredGrid(rows, cols, rng));
      scenario.note = "jittered-grid";
      break;
    }
    case 2: {
      const size_t n = 40 + rng.NextIndex(100);
      graph = std::make_shared<Graph>(MakeGeometric(n, rng));
      scenario.note = "geometric";
      break;
    }
    case 3: {
      // Two tie-grids, disjoint: maximal tie density plus disconnection.
      Graph a = MakeTieGrid(3 + rng.NextIndex(3), 3 + rng.NextIndex(3), rng);
      Graph b = MakeTieGrid(3 + rng.NextIndex(3), 3 + rng.NextIndex(3), rng);
      GraphBuilder builder;
      AppendComponent(builder, a, 0.0, 0.0);
      AppendComponent(builder, b, MaxX(a) + 50000.0, 0.0);
      graph = std::make_shared<Graph>(builder.Build());
      scenario.note = "disconnected-tie-grids";
      break;
    }
    default: {
      Graph a = MakeJitteredGrid(3 + rng.NextIndex(4), 3 + rng.NextIndex(4),
                                 rng);
      Graph b = MakeGeometric(30 + rng.NextIndex(40), rng);
      GraphBuilder builder;
      AppendComponent(builder, a, 0.0, 0.0);
      AppendComponent(builder, b, MaxX(a) + 80000.0, 0.0);
      graph = std::make_shared<Graph>(builder.Build());
      scenario.note = "disconnected-mixed";
      break;
    }
  }
  scenario.graph = graph;
  const size_t n = graph->NumVertices();

  // P and Q, with forced overlap half of the time.
  const size_t p_size = 1 + rng.NextIndex(std::min<size_t>(n, 30));
  scenario.p = SampleSet(n, p_size, rng, nullptr);
  const size_t q_size = 1 + rng.NextIndex(std::min<size_t>(n, 12));
  const bool overlap = rng.NextBool(0.5);
  scenario.q = SampleSet(n, q_size, rng, overlap ? &scenario.p : nullptr);

  // phi, biased to the rounding boundaries.
  const size_t m = scenario.q.size();
  switch (rng.NextIndex(5)) {
    case 0:
      scenario.phi = 1.0 / static_cast<double>(m);
      break;
    case 1:
      scenario.phi = 1.0;
      break;
    case 2:
      scenario.phi = 0.5;
      break;
    case 3:
      // Exactly representable multiples of 1/|Q| stress FlexK rounding.
      scenario.phi = static_cast<double>(1 + rng.NextIndex(m)) /
                     static_cast<double>(m);
      break;
    default:
      scenario.phi = std::min(1.0, rng.NextDouble(0.05, 1.0));
      break;
  }

  // k_results, including the k > |P| overflow case.
  switch (rng.NextIndex(4)) {
    case 0:
      scenario.k_results = 1;
      break;
    case 1:
      scenario.k_results = scenario.p.size() + 3;
      break;
    case 2:
      scenario.k_results = std::max<size_t>(1, scenario.p.size() / 2);
      break;
    default:
      scenario.k_results = 1 + rng.NextIndex(8);
      break;
  }

  // Per-query-point weights, a third of the time. The power-of-two
  // branch keeps every w_i * d product exact, so the tie structure the
  // grid shapes exist for survives weighting; the random branch
  // stresses the weighted folding order instead.
  if (rng.NextBool(1.0 / 3.0)) {
    const bool pow2 = rng.NextBool(0.5);
    scenario.weights.reserve(m);
    for (size_t i = 0; i < m; ++i) {
      if (pow2) {
        constexpr double kPow2[] = {0.25, 0.5, 1.0, 2.0, 4.0};
        scenario.weights.push_back(kPow2[rng.NextIndex(5)]);
      } else {
        scenario.weights.push_back(rng.NextDouble(0.1, 5.0));
      }
    }
  }

  scenario.aggregates = AggregateMode::kBoth;
  return scenario;
}

std::vector<VertexId> ShiftedQuery(const Scenario& scenario) {
  FANNR_CHECK(scenario.graph != nullptr);
  const size_t n = scenario.graph->NumVertices();
  std::vector<VertexId> shifted;
  shifted.reserve(scenario.q.size());
  for (VertexId q : scenario.q) {
    shifted.push_back(static_cast<VertexId>((q + n / 2) % n));
  }
  return shifted;
}

bool WriteScenario(const Scenario& scenario, std::ostream& out) {
  FANNR_CHECK(scenario.graph != nullptr);
  const Graph& graph = *scenario.graph;
  char buf[96];
  out << "fannr-scenario 1\n";
  if (!scenario.note.empty()) out << "note " << scenario.note << "\n";
  out << "seed " << scenario.seed << "\n";
  out << "graph " << graph.NumVertices() << " " << graph.NumEdges() << " "
      << (graph.HasCoordinates() ? "coords" : "nocoords") << "\n";
  if (graph.HasCoordinates()) {
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      const Point& c = graph.Coord(v);
      std::snprintf(buf, sizeof(buf), "v %u %.17g %.17g\n", v, c.x, c.y);
      out << buf;
    }
  }
  for (VertexId u = 0; u < graph.NumVertices(); ++u) {
    for (const Arc& arc : graph.Neighbors(u)) {
      if (u < arc.to) {
        std::snprintf(buf, sizeof(buf), "e %u %u %.17g\n", u, arc.to,
                      arc.weight);
        out << buf;
      }
    }
  }
  out << "p " << scenario.p.size();
  for (VertexId v : scenario.p) out << " " << v;
  out << "\nq " << scenario.q.size();
  for (VertexId v : scenario.q) out << " " << v;
  out << "\n";
  if (!scenario.weights.empty()) {
    out << "weights " << scenario.weights.size();
    for (double w : scenario.weights) {
      std::snprintf(buf, sizeof(buf), " %.17g", w);
      out << buf;
    }
    out << "\n";
  }
  std::snprintf(buf, sizeof(buf), "phi %.17g\n", scenario.phi);
  out << buf;
  out << "aggregate "
      << (scenario.aggregates == AggregateMode::kBoth      ? "both"
          : scenario.aggregates == AggregateMode::kMaxOnly ? "max"
                                                           : "sum")
      << "\n";
  out << "k_results " << scenario.k_results << "\n";
  out << "end\n";
  return static_cast<bool>(out);
}

bool WriteScenarioFile(const Scenario& scenario, const std::string& path) {
  std::ofstream out(path);
  return out && WriteScenario(scenario, out);
}

namespace {

std::optional<Scenario> Fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return std::nullopt;
}

}  // namespace

std::optional<Scenario> ReadScenario(const std::string& text,
                                     std::string* error) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "fannr-scenario 1") {
    return Fail(error, "missing 'fannr-scenario 1' header");
  }
  Scenario scenario;
  size_t num_vertices = 0;
  size_t num_edges = 0;
  bool has_coords = false;
  bool graph_seen = false;
  GraphBuilder builder;
  std::vector<std::pair<VertexId, Point>> coords;
  size_t edges_seen = 0;
  bool ended = false;
  std::string vertex_error;

  // Materializes the vertices once all `v` lines are in (at the first
  // edge, or before Build for edge-free graphs).
  auto ensure_vertices = [&]() {
    if (builder.NumVertices() != 0 || num_vertices == 0) return true;
    if (has_coords) {
      if (coords.size() != num_vertices) {
        vertex_error = "coordinate count != vertex count";
        return false;
      }
      std::sort(coords.begin(), coords.end(),
                [](const auto& a, const auto& b) {
                  return a.first < b.first;
                });
      for (size_t i = 0; i < coords.size(); ++i) {
        if (coords[i].first != i) {
          vertex_error = "non-dense vertex ids";
          return false;
        }
        builder.AddVertex(coords[i].second);
      }
    } else {
      builder.Resize(num_vertices);
    }
    return true;
  };

  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "note") {
      std::getline(ls, scenario.note);
      if (!scenario.note.empty() && scenario.note.front() == ' ') {
        scenario.note.erase(scenario.note.begin());
      }
    } else if (tag == "seed") {
      ls >> scenario.seed;
    } else if (tag == "graph") {
      std::string coord_tag;
      if (!(ls >> num_vertices >> num_edges >> coord_tag)) {
        return Fail(error, "malformed graph line");
      }
      has_coords = coord_tag == "coords";
      graph_seen = true;
      coords.reserve(has_coords ? num_vertices : 0);
    } else if (tag == "v") {
      VertexId id;
      Point c;
      if (!(ls >> id >> c.x >> c.y) || id >= num_vertices) {
        return Fail(error, "malformed vertex line: " + line);
      }
      coords.push_back({id, c});
    } else if (tag == "e") {
      VertexId u, v;
      Weight w;
      if (!(ls >> u >> v >> w) || u >= num_vertices || v >= num_vertices ||
          !(w > 0.0)) {
        return Fail(error, "malformed edge line: " + line);
      }
      if (!ensure_vertices()) return Fail(error, vertex_error);
      builder.AddEdge(u, v, w);
      ++edges_seen;
    } else if (tag == "p" || tag == "q") {
      size_t count;
      if (!(ls >> count)) return Fail(error, "malformed set line: " + line);
      std::vector<VertexId>& set = tag == "p" ? scenario.p : scenario.q;
      set.resize(count);
      for (size_t i = 0; i < count; ++i) {
        if (!(ls >> set[i]) || set[i] >= num_vertices) {
          return Fail(error, "malformed set line: " + line);
        }
      }
    } else if (tag == "weights") {
      size_t count;
      if (!(ls >> count)) {
        return Fail(error, "malformed weights line: " + line);
      }
      scenario.weights.resize(count);
      for (size_t i = 0; i < count; ++i) {
        if (!(ls >> scenario.weights[i]) ||
            !std::isfinite(scenario.weights[i]) ||
            !(scenario.weights[i] > 0.0)) {
          return Fail(error, "malformed weights line: " + line);
        }
      }
    } else if (tag == "phi") {
      if (!(ls >> scenario.phi) || !(scenario.phi > 0.0) ||
          scenario.phi > 1.0) {
        return Fail(error, "phi out of (0, 1]");
      }
    } else if (tag == "aggregate") {
      std::string mode;
      ls >> mode;
      if (mode == "both") {
        scenario.aggregates = AggregateMode::kBoth;
      } else if (mode == "max") {
        scenario.aggregates = AggregateMode::kMaxOnly;
      } else if (mode == "sum") {
        scenario.aggregates = AggregateMode::kSumOnly;
      } else {
        return Fail(error, "unknown aggregate mode: " + mode);
      }
    } else if (tag == "k_results") {
      if (!(ls >> scenario.k_results) || scenario.k_results == 0) {
        return Fail(error, "malformed k_results line");
      }
    } else if (tag == "end") {
      ended = true;
      break;
    } else {
      return Fail(error, "unknown tag: " + tag);
    }
  }

  if (!graph_seen || !ended) return Fail(error, "truncated scenario");
  if (edges_seen != num_edges) return Fail(error, "edge count mismatch");
  if (scenario.p.empty() || scenario.q.empty()) {
    return Fail(error, "empty P or Q");
  }
  if (!scenario.weights.empty() &&
      scenario.weights.size() != scenario.q.size()) {
    return Fail(error, "weight count != |Q|");
  }
  if (!ensure_vertices()) return Fail(error, vertex_error);
  scenario.graph = std::make_shared<const Graph>(builder.Build());
  if (scenario.graph->NumVertices() != num_vertices) {
    return Fail(error, "vertex count mismatch after build");
  }
  return scenario;
}

std::optional<Scenario> ReadScenarioFile(const std::string& path,
                                         std::string* error) {
  std::ifstream in(path);
  if (!in) return Fail(error, "cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return ReadScenario(text.str(), error);
}

}  // namespace fannr::testing
