#include "sp/gtree/gtree.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/flat_heap.h"
#include "engine/thread_pool.h"
#include "graph/index_io.h"
#include "sp/gtree/partition.h"

namespace fannr {

namespace {

using HeapEntry = std::pair<Weight, uint32_t>;
using MinHeap = FlatHeap<HeapEntry>;

}  // namespace

GTree GTree::Build(const Graph& graph, const Options& options,
                   ThreadPool* pool) {
  FANNR_CHECK(options.fanout >= 2 &&
              (options.fanout & (options.fanout - 1)) == 0);
  FANNR_CHECK(options.leaf_capacity >= options.fanout);

  GTree tree;
  tree.graph_ = &graph;
  tree.options_ = options;
  tree.fingerprint_ = graph.Fingerprint();
  tree.build_epoch_ = graph.epoch();
  const size_t n = graph.NumVertices();
  tree.leaf_of_.vec().assign(n, 0);
  tree.leaf_pos_.vec().assign(n, 0);

  // Phase 1: recursive partitioning into the tree structure.
  tree.nodes_.emplace_back();  // root
  struct Frame {
    int32_t node;
    std::vector<VertexId> verts;
  };
  std::vector<Frame> stack;
  {
    std::vector<VertexId> all(n);
    std::iota(all.begin(), all.end(), VertexId{0});
    stack.push_back({0, std::move(all)});
  }
  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    if (frame.verts.size() <= options.leaf_capacity) {
      Node& leaf = tree.nodes_[frame.node];
      leaf.is_leaf = true;
      leaf.vertices = std::move(frame.verts);
      for (size_t pos = 0; pos < leaf.vertices.size(); ++pos) {
        tree.leaf_of_[leaf.vertices[pos]] = frame.node;
        tree.leaf_pos_[leaf.vertices[pos]] = static_cast<uint32_t>(pos);
      }
      continue;
    }
    const std::vector<uint32_t> part =
        MultiwayPartition(graph, frame.verts, options.fanout);
    std::vector<std::vector<VertexId>> parts(options.fanout);
    for (size_t i = 0; i < frame.verts.size(); ++i) {
      parts[part[i]].push_back(frame.verts[i]);
    }
    tree.nodes_[frame.node].is_leaf = false;
    const uint32_t child_depth = tree.nodes_[frame.node].depth + 1;
    for (auto& child_verts : parts) {
      const int32_t child_id = static_cast<int32_t>(tree.nodes_.size());
      tree.nodes_.emplace_back();
      tree.nodes_[child_id].parent = frame.node;
      tree.nodes_[child_id].depth = child_depth;
      tree.nodes_[frame.node].children.vec().push_back(child_id);
      stack.push_back({child_id, std::move(child_verts)});
    }
  }

  // Phase 2: DFS leaf intervals (so "w in subtree of node" is an interval
  // test on the leaf order).
  uint32_t next_leaf = 0;
  std::function<void(int32_t)> assign_intervals = [&](int32_t id) {
    Node& nd = tree.nodes_[id];
    nd.leaf_begin = next_leaf;
    if (nd.is_leaf) {
      ++next_leaf;
    } else {
      for (int32_t c : nd.children) assign_intervals(c);
    }
    nd.leaf_end = next_leaf;
  };
  assign_intervals(0);
  tree.num_leaves_ = next_leaf;

  auto leaf_order_of = [&](VertexId v) {
    return tree.nodes_[tree.leaf_of_[v]].leaf_begin;
  };
  auto in_node = [&](const Node& nd, VertexId w) {
    const uint32_t lo = leaf_order_of(w);
    return lo >= nd.leaf_begin && lo < nd.leaf_end;
  };

  // Phase 3: borders, bottom-up (deepest nodes first). Node ids are
  // created parent-before-child, so reverse id order visits children
  // before parents.
  for (int32_t id = static_cast<int32_t>(tree.nodes_.size()) - 1; id >= 0;
       --id) {
    Node& nd = tree.nodes_[id];
    if (nd.is_leaf) {
      for (VertexId v : nd.vertices) {
        for (const Arc& a : graph.Neighbors(v)) {
          if (!in_node(nd, a.to)) {
            nd.borders.vec().push_back(v);
            break;
          }
        }
      }
    } else {
      // occupants = concat of children borders; node borders are those
      // occupants that still have an edge leaving this node.
      for (int32_t cid : nd.children) {
        Node& child = tree.nodes_[cid];
        child.occ_offset = static_cast<uint32_t>(nd.occupants.size());
        for (size_t bi = 0; bi < child.borders.size(); ++bi) {
          const VertexId v = child.borders[bi];
          const uint32_t occ_pos = static_cast<uint32_t>(
              nd.occupants.size());
          nd.occupants.vec().push_back(v);
          for (const Arc& a : graph.Neighbors(v)) {
            if (!in_node(nd, a.to)) {
              nd.borders.vec().push_back(v);
              nd.border_occ_pos.vec().push_back(occ_pos);
              break;
            }
          }
        }
      }
    }
  }

  // Phases 4-6 do all the matrix work. Each node's matrix is a pure
  // function of already-complete inputs (the graph, its children's
  // matrices, its parent's refined matrix), so nodes of one kind/depth
  // level are independent and may run in any order — including fanned
  // over a pool — with bitwise-identical results.
  std::vector<int32_t> leaf_ids;
  uint32_t max_depth = 0;
  for (const Node& nd : tree.nodes_) max_depth = std::max(max_depth, nd.depth);
  std::vector<std::vector<int32_t>> internal_by_depth(max_depth + 1);
  for (int32_t id = 0; id < static_cast<int32_t>(tree.nodes_.size()); ++id) {
    const Node& nd = tree.nodes_[id];
    if (nd.is_leaf) {
      leaf_ids.push_back(id);
    } else {
      internal_by_depth[nd.depth].push_back(id);
    }
  }
  auto run = [&](const std::vector<int32_t>& ids, auto&& fn) {
    if (pool == nullptr) {
      for (int32_t id : ids) fn(id);
    } else {
      pool->ParallelFor(ids.size(),
                        [&](size_t i, size_t /*worker*/) { fn(ids[i]); });
    }
  };

  // Phase 4: leaf matrices (within-leaf border-to-vertex distances);
  // every leaf independent.
  run(leaf_ids, [&](int32_t id) { tree.ComputeLeafMatrix(tree.nodes_[id]); });

  // Phase 5: bottom-up assembly (within-subgraph distances), one depth
  // level at a time from the deepest up — a node only reads its
  // children's (one level deeper, already complete) matrices.
  for (size_t d = internal_by_depth.size(); d-- > 0;) {
    run(internal_by_depth[d], [&](int32_t id) {
      tree.AssembleInternalMatrix(tree.nodes_[id], /*refine=*/false);
    });
  }

  // Phase 6: top-down refinement (global distances) by increasing
  // depth. A node reads its parent's refined matrix (previous level,
  // complete) and its children's matrices (still the bottom-up
  // within-child versions until the NEXT level runs — exactly what the
  // correctness argument requires), so each level is internally
  // independent. The root's bottom-up matrix is already global.
  for (size_t d = 1; d < internal_by_depth.size(); ++d) {
    run(internal_by_depth[d], [&](int32_t id) {
      tree.AssembleInternalMatrix(tree.nodes_[id], /*refine=*/true);
    });
  }
  return tree;
}

void GTree::ComputeLeafMatrix(Node& leaf) {
  const size_t cols = leaf.vertices.size();
  leaf.matrix.vec().assign(leaf.borders.size() * cols, kInfWeight);
  for (size_t row = 0; row < leaf.borders.size(); ++row) {
    std::vector<Weight> dist =
        WithinLeafDistancesImpl(leaf, leaf.borders[row]);
    std::copy(dist.begin(), dist.end(), leaf.matrix.data() + row * cols);
  }
}

std::vector<Weight> GTree::WithinLeafDistances(int32_t leaf,
                                               VertexId source) const {
  FANNR_CHECK(leaf_of_[source] == leaf);
  return WithinLeafDistancesImpl(nodes_[leaf], source);
}

std::vector<Weight> GTree::WithinLeafDistancesImpl(const Node& leaf,
                                                   VertexId source) const {
  const int32_t leaf_id = leaf_of_[source];
  std::vector<Weight> dist(leaf.vertices.size(), kInfWeight);
  MinHeap heap;
  dist[leaf_pos_[source]] = 0.0;
  heap.push({0.0, leaf_pos_[source]});
  while (!heap.empty()) {
    auto [d, pos] = heap.top();
    heap.pop();
    if (d > dist[pos]) continue;
    const VertexId u = leaf.vertices[pos];
    for (const Arc& a : graph_->Neighbors(u)) {
      if (leaf_of_[a.to] != leaf_id) continue;  // stay inside the leaf
      const uint32_t npos = leaf_pos_[a.to];
      const Weight nd = d + a.weight;
      if (nd < dist[npos]) {
        dist[npos] = nd;
        heap.push({nd, npos});
      }
    }
  }
  return dist;
}

void GTree::AssembleInternalMatrix(Node& nd, bool refine) {
  const size_t m = nd.occupants.size();
  nd.matrix.vec().assign(m * m, kInfWeight);
  if (m == 0) return;

  std::unordered_map<VertexId, uint32_t> occ_index;
  occ_index.reserve(m * 2);
  for (uint32_t i = 0; i < m; ++i) occ_index.emplace(nd.occupants[i], i);

  // Super-graph over occupants.
  std::vector<std::vector<std::pair<uint32_t, Weight>>> adj(m);
  auto add_edge = [&](uint32_t a, uint32_t b, Weight w) {
    if (w == kInfWeight || a == b) return;
    adj[a].push_back({b, w});
    adj[b].push_back({a, w});
  };

  // (i) Within-child cliques from children's matrices.
  for (int32_t cid : nd.children) {
    const Node& child = nodes_[cid];
    const size_t nb = child.borders.size();
    for (size_t i = 0; i < nb; ++i) {
      for (size_t j = i + 1; j < nb; ++j) {
        const Weight w =
            child.is_leaf
                ? child.MatrixAt(i, leaf_pos_[child.borders[j]])
                : child.MatrixAt(child.border_occ_pos[i],
                                 child.border_occ_pos[j]);
        add_edge(child.occ_offset + static_cast<uint32_t>(i),
                 child.occ_offset + static_cast<uint32_t>(j), w);
      }
    }
  }

  // (ii) Original edges between occupants (covers all child-to-child
  // connections inside this node; same-child duplicates are harmless).
  for (uint32_t i = 0; i < m; ++i) {
    for (const Arc& a : graph_->Neighbors(nd.occupants[i])) {
      auto it = occ_index.find(a.to);
      if (it != occ_index.end() && it->second > i) {
        add_edge(i, it->second, a.weight);
      }
    }
  }

  // (iii) Refinement: global shortcuts among this node's borders from the
  // parent's (already refined) matrix, covering paths that leave this
  // node's subgraph and come back.
  if (refine && nd.parent >= 0) {
    const Node& parent = nodes_[nd.parent];
    const size_t nb = nd.borders.size();
    for (size_t i = 0; i < nb; ++i) {
      for (size_t j = i + 1; j < nb; ++j) {
        const Weight w = parent.MatrixAt(nd.occ_offset + i,
                                         nd.occ_offset + j);
        add_edge(nd.border_occ_pos[i], nd.border_occ_pos[j], w);
      }
    }
  }

  // All-pairs over the super-graph: one Dijkstra per occupant.
  std::vector<Weight> dist(m);
  for (uint32_t src = 0; src < m; ++src) {
    std::fill(dist.begin(), dist.end(), kInfWeight);
    MinHeap heap;
    dist[src] = 0.0;
    heap.push({0.0, src});
    while (!heap.empty()) {
      auto [d, u] = heap.top();
      heap.pop();
      if (d > dist[u]) continue;
      for (const auto& [v, w] : adj[u]) {
        if (d + w < dist[v]) {
          dist[v] = d + w;
          heap.push({d + w, v});
        }
      }
    }
    std::copy(dist.begin(), dist.end(), nd.matrix.data() + src * m);
  }
}

Weight GTree::Distance(VertexId u, VertexId v) const {
  FANNR_CHECK(u < graph_->NumVertices() && v < graph_->NumVertices());
  if (u == v) return 0.0;
  const int32_t lu = leaf_of_[u];
  const int32_t lv = leaf_of_[v];

  if (lu == lv) {
    // Same leaf: best of a pure within-leaf path and a path that exits
    // through border b1 and re-enters through border b2 (the global
    // border-to-border distance comes from the parent's refined matrix).
    const Node& leaf = nodes_[lu];
    const std::vector<Weight> within = WithinLeafDistancesImpl(leaf, u);
    Weight best = within[leaf_pos_[v]];
    if (leaf.parent >= 0 && !leaf.borders.empty()) {
      const Node& parent = nodes_[leaf.parent];
      const size_t nb = leaf.borders.size();
      for (size_t j = 0; j < nb; ++j) {
        // Exact global distance from u to border j.
        Weight dj = kInfWeight;
        for (size_t i = 0; i < nb; ++i) {
          const Weight wi = within[leaf_pos_[leaf.borders[i]]];
          if (wi == kInfWeight) continue;
          const Weight mid = parent.MatrixAt(leaf.occ_offset + i,
                                             leaf.occ_offset + j);
          if (mid == kInfWeight) continue;
          dj = std::min(dj, wi + mid);
        }
        const Weight back = leaf.MatrixAt(j, leaf_pos_[v]);
        if (dj != kInfWeight && back != kInfWeight) {
          best = std::min(best, dj + back);
        }
      }
    }
    return best;
  }

  // Find the lowest common ancestor.
  int32_t a = lu, b = lv;
  while (nodes_[a].depth > nodes_[b].depth) a = nodes_[a].parent;
  while (nodes_[b].depth > nodes_[a].depth) b = nodes_[b].parent;
  while (a != b) {
    a = nodes_[a].parent;
    b = nodes_[b].parent;
  }
  const int32_t lca = a;

  // Sweep from a leaf up to the child of the LCA, maintaining exact
  // distances from the endpoint to the current node's borders.
  auto sweep = [&](int32_t leaf_id, VertexId endpoint)
      -> std::pair<int32_t, std::vector<Weight>> {
    const Node& leaf = nodes_[leaf_id];
    std::vector<Weight> d(leaf.borders.size(), kInfWeight);
    for (size_t i = 0; i < leaf.borders.size(); ++i) {
      d[i] = leaf.MatrixAt(i, leaf_pos_[endpoint]);
    }
    int32_t cur = leaf_id;
    while (nodes_[cur].parent != lca) {
      const int32_t parent_id = nodes_[cur].parent;
      const Node& cur_node = nodes_[cur];
      const Node& parent = nodes_[parent_id];
      std::vector<Weight> nd(parent.borders.size(), kInfWeight);
      for (size_t j = 0; j < parent.borders.size(); ++j) {
        for (size_t i = 0; i < cur_node.borders.size(); ++i) {
          if (d[i] == kInfWeight) continue;
          const Weight mid = parent.MatrixAt(cur_node.occ_offset + i,
                                             parent.border_occ_pos[j]);
          if (mid == kInfWeight) continue;
          nd[j] = std::min(nd[j], d[i] + mid);
        }
      }
      d = std::move(nd);
      cur = parent_id;
    }
    return {cur, std::move(d)};
  };

  const auto [cu, du] = sweep(lu, u);
  const auto [cv, dv] = sweep(lv, v);
  const Node& top = nodes_[lca];
  const Node& child_u = nodes_[cu];
  const Node& child_v = nodes_[cv];
  Weight best = kInfWeight;
  for (size_t i = 0; i < du.size(); ++i) {
    if (du[i] == kInfWeight) continue;
    for (size_t j = 0; j < dv.size(); ++j) {
      if (dv[j] == kInfWeight) continue;
      const Weight mid = top.MatrixAt(child_u.occ_offset + i,
                                      child_v.occ_offset + j);
      if (mid == kInfWeight) continue;
      best = std::min(best, du[i] + mid + dv[j]);
    }
  }
  return best;
}

GTree::SourceOracle::SourceOracle(const GTree& tree, VertexId source)
    : tree_(tree), source_(source) {
  FANNR_CHECK(source < tree.graph().NumVertices());
  source_leaf_ = tree.leaf_of_[source];
  leaf_depth_ = tree.nodes_[source_leaf_].depth;
  within_ = tree.WithinLeafDistancesImpl(tree.nodes_[source_leaf_], source);

  // Precompute the source-side sweep for every ancestor level.
  int32_t cur = source_leaf_;
  const Node& leaf = tree.nodes_[source_leaf_];
  std::vector<Weight> d(leaf.borders.size(), kInfWeight);
  for (size_t i = 0; i < leaf.borders.size(); ++i) {
    d[i] = leaf.MatrixAt(i, tree.leaf_pos_[source]);
  }
  path_.push_back(cur);
  du_.push_back(d);
  while (tree.nodes_[cur].parent >= 0) {
    const int32_t parent_id = tree.nodes_[cur].parent;
    const Node& cur_node = tree.nodes_[cur];
    const Node& parent = tree.nodes_[parent_id];
    std::vector<Weight> nd(parent.borders.size(), kInfWeight);
    for (size_t j = 0; j < parent.borders.size(); ++j) {
      for (size_t i = 0; i < cur_node.borders.size(); ++i) {
        if (d[i] == kInfWeight) continue;
        const Weight mid = parent.MatrixAt(cur_node.occ_offset + i,
                                           parent.border_occ_pos[j]);
        if (mid == kInfWeight) continue;
        nd[j] = std::min(nd[j], d[i] + mid);
      }
    }
    d = nd;
    cur = parent_id;
    path_.push_back(cur);
    du_.push_back(d);
  }
}

Weight GTree::SourceOracle::DistanceTo(VertexId target) const {
  const GTree& tree = tree_;
  if (target == source_) return 0.0;
  const int32_t lv = tree.leaf_of_[target];

  if (lv == source_leaf_) {
    // Same leaf: reuse the precomputed within-leaf distances.
    const Node& leaf = tree.nodes_[source_leaf_];
    Weight best = within_[tree.leaf_pos_[target]];
    if (leaf.parent >= 0 && !leaf.borders.empty()) {
      const Node& parent = tree.nodes_[leaf.parent];
      const size_t nb = leaf.borders.size();
      for (size_t j = 0; j < nb; ++j) {
        Weight dj = kInfWeight;
        for (size_t i = 0; i < nb; ++i) {
          const Weight wi = within_[tree.leaf_pos_[leaf.borders[i]]];
          if (wi == kInfWeight) continue;
          const Weight mid = parent.MatrixAt(leaf.occ_offset + i,
                                             leaf.occ_offset + j);
          if (mid == kInfWeight) continue;
          dj = std::min(dj, wi + mid);
        }
        const Weight back = leaf.MatrixAt(j, tree.leaf_pos_[target]);
        if (dj != kInfWeight && back != kInfWeight) {
          best = std::min(best, dj + back);
        }
      }
    }
    return best;
  }

  // LCA of the two leaves.
  int32_t a = source_leaf_, b = lv;
  while (tree.nodes_[a].depth > tree.nodes_[b].depth) {
    a = tree.nodes_[a].parent;
  }
  while (tree.nodes_[b].depth > tree.nodes_[a].depth) {
    b = tree.nodes_[b].parent;
  }
  while (a != b) {
    a = tree.nodes_[a].parent;
    b = tree.nodes_[b].parent;
  }
  const int32_t lca = a;
  const uint32_t lca_depth = tree.nodes_[lca].depth;
  // Source-side child of the LCA sits at index (leaf_depth - lca_depth -
  // 1) on the precomputed path (path depths decrease by one per step).
  const size_t si = leaf_depth_ - lca_depth - 1;
  FANNR_DCHECK(si < path_.size() &&
               tree.nodes_[path_[si]].parent == lca);

  // Target-side sweep up to the child of the LCA.
  const Node& target_leaf = tree.nodes_[lv];
  std::vector<Weight> dv(target_leaf.borders.size(), kInfWeight);
  for (size_t i = 0; i < target_leaf.borders.size(); ++i) {
    dv[i] = target_leaf.MatrixAt(i, tree.leaf_pos_[target]);
  }
  int32_t cur = lv;
  while (tree.nodes_[cur].parent != lca) {
    const int32_t parent_id = tree.nodes_[cur].parent;
    const Node& cur_node = tree.nodes_[cur];
    const Node& parent = tree.nodes_[parent_id];
    std::vector<Weight> nd(parent.borders.size(), kInfWeight);
    for (size_t j = 0; j < parent.borders.size(); ++j) {
      for (size_t i = 0; i < cur_node.borders.size(); ++i) {
        if (dv[i] == kInfWeight) continue;
        const Weight mid = parent.MatrixAt(cur_node.occ_offset + i,
                                           parent.border_occ_pos[j]);
        if (mid == kInfWeight) continue;
        nd[j] = std::min(nd[j], dv[i] + mid);
      }
    }
    dv = std::move(nd);
    cur = parent_id;
  }

  const Node& top = tree.nodes_[lca];
  const Node& child_u = tree.nodes_[path_[si]];
  const Node& child_v = tree.nodes_[cur];
  const std::vector<Weight>& du = du_[si];
  Weight best = kInfWeight;
  for (size_t i = 0; i < du.size(); ++i) {
    if (du[i] == kInfWeight) continue;
    for (size_t j = 0; j < dv.size(); ++j) {
      if (dv[j] == kInfWeight) continue;
      const Weight mid = top.MatrixAt(child_u.occ_offset + i,
                                      child_v.occ_offset + j);
      if (mid == kInfWeight) continue;
      best = std::min(best, du[i] + mid + dv[j]);
    }
  }
  return best;
}

namespace {

constexpr uint64_t kGTreeMagic = 0xFA22A81A67BEE002ULL;

// POD mirrors of the scalar/meta sections (see Save below).
struct GTreeParamsPod {
  uint64_t fanout;
  uint64_t leaf_capacity;
  uint64_t num_leaves;
  uint64_t num_nodes;
};
static_assert(sizeof(GTreeParamsPod) == 32);

struct GTreeNodePod {
  int32_t parent;
  uint32_t depth;
  uint32_t is_leaf;
  uint32_t occ_offset;
  uint32_t leaf_begin;
  uint32_t leaf_end;
};
static_assert(sizeof(GTreeNodePod) == 24);

// Structural checks on load: every array reference that Distance(),
// SourceOracle and the kNN engine follow without bounds checks must be
// internally consistent, so a corrupt payload can never cause an
// out-of-range read or a non-terminating parent walk.
bool ValidTreeStructure(size_t vertices,
                        const std::vector<GTree::Node>& nodes,
                        const Column<int32_t>& leaf_of,
                        const Column<uint32_t>& leaf_pos) {
  if (leaf_of.size() != vertices || leaf_pos.size() != vertices) return false;
  const size_t n = nodes.size();
  if (n == 0) return vertices == 0;
  for (size_t id = 0; id < n; ++id) {
    const GTree::Node& nd = nodes[id];
    if (id == 0) {
      if (nd.parent != -1 || nd.depth != 0) return false;
    } else {
      // Parents precede their children and sit one level up, so every
      // upward walk strictly decreases depth and terminates at node 0.
      if (nd.parent < 0 || static_cast<size_t>(nd.parent) >= id) return false;
      if (nd.depth != nodes[nd.parent].depth + 1) return false;
      // The node's border rows live at [occ_offset, occ_offset + |B|)
      // inside the parent's occupant-indexed matrix.
      if (uint64_t{nd.occ_offset} + nd.borders.size() >
          nodes[nd.parent].occupants.size()) {
        return false;
      }
    }
    for (VertexId b : nd.borders) {
      if (b >= vertices) return false;
    }
    if (nd.is_leaf) {
      if (!nd.children.empty()) return false;
      for (VertexId v : nd.vertices) {
        if (v >= vertices) return false;
      }
      // Leaf border rows index within[] arrays sized by the leaf's own
      // vertex list, so each border must be a member of this leaf.
      for (VertexId b : nd.borders) {
        if (static_cast<size_t>(leaf_of[b]) != id) return false;
      }
      const uint64_t rows = nd.borders.size();
      const uint64_t cols = nd.vertices.size();
      if (rows != 0 && cols != 0) {
        if (nd.matrix.size() % rows != 0 || nd.matrix.size() / rows != cols) {
          return false;
        }
      } else if (!nd.matrix.empty()) {
        return false;
      }
    } else {
      const uint64_t m = nd.occupants.size();
      if (m == 0) {
        if (!nd.matrix.empty()) return false;
      } else if (nd.matrix.size() % m != 0 || nd.matrix.size() / m != m) {
        return false;
      }
      if (nd.border_occ_pos.size() != nd.borders.size()) return false;
      for (uint32_t pos : nd.border_occ_pos) {
        if (pos >= m) return false;
      }
      for (int32_t cid : nd.children) {
        if (cid <= 0 || static_cast<size_t>(cid) >= n) return false;
      }
    }
  }
  // Per-vertex leaf references must land on a real leaf at a valid
  // position — queries follow them without bounds checks.
  for (size_t v = 0; v < vertices; ++v) {
    const int32_t leaf = leaf_of[v];
    if (leaf < 0 || static_cast<size_t>(leaf) >= n) return false;
    const GTree::Node& nd = nodes[leaf];
    if (!nd.is_leaf || leaf_pos[v] >= nd.vertices.size()) return false;
  }
  return true;
}

// Adds one ragged per-node field as two sections: the u64 prefix
// offsets (built into `offsets`, which must outlive the write) and the
// nodes' slices, written back to back straight from their columns.
template <typename T>
void AddRaggedField(ArenaWriter& w, const std::vector<GTree::Node>& nodes,
                    Column<T> GTree::Node::*field,
                    std::vector<uint64_t>& offsets) {
  std::vector<std::span<const T>> parts;
  parts.reserve(nodes.size());
  offsets.reserve(nodes.size() + 1);
  offsets.push_back(0);
  for (const GTree::Node& nd : nodes) {
    const Column<T>& slice = nd.*field;
    parts.emplace_back(slice.data(), slice.size());
    offsets.push_back(offsets.back() + slice.size());
  }
  w.Add(offsets);
  w.AddGather(std::span<const std::span<const T>>(parts));
}

}  // namespace

bool GTree::Save(const std::string& path) const {
  // Sixteen sections: params, leaf_of, leaf_pos, node metas, then a
  // (u64 prefix-offset array of length num_nodes + 1, concatenated
  // payload) pair per ragged per-node field. LoadMmap borrows node i's
  // slice as payload[offs[i], offs[i + 1]).
  const size_t n = nodes_.size();
  std::vector<GTreeNodePod> metas;
  metas.reserve(n);
  for (const Node& nd : nodes_) {
    metas.push_back({nd.parent, nd.depth, nd.is_leaf ? 1u : 0u,
                     nd.occ_offset, nd.leaf_begin, nd.leaf_end});
  }
  ArenaWriter w;
  w.AddScalar(GTreeParamsPod{options_.fanout, options_.leaf_capacity,
                             num_leaves_, n});
  w.Add(leaf_of_);
  w.Add(leaf_pos_);
  w.Add(metas);
  std::vector<uint64_t> offsets[6];
  AddRaggedField(w, nodes_, &Node::children, offsets[0]);
  AddRaggedField(w, nodes_, &Node::vertices, offsets[1]);
  AddRaggedField(w, nodes_, &Node::borders, offsets[2]);
  AddRaggedField(w, nodes_, &Node::occupants, offsets[3]);
  AddRaggedField(w, nodes_, &Node::border_occ_pos, offsets[4]);
  AddRaggedField(w, nodes_, &Node::matrix, offsets[5]);
  return w.Write(path, kGTreeMagic, fingerprint_);
}

std::optional<GTree> GTree::LoadMmap(const Graph& graph,
                                     const std::string& path,
                                     ArenaValidation validation) {
  auto arena = ArenaFile::Open(path, kGTreeMagic, validation);
  if (!arena || arena->fingerprint() != graph.Fingerprint() ||
      arena->NumSections() != 16) {
    return std::nullopt;
  }
  GTreeParamsPod params{};
  if (!arena->ReadScalar(0, params)) return std::nullopt;
  const size_t n = params.num_nodes;

  GTree tree;
  tree.graph_ = &graph;
  tree.options_.fanout = params.fanout;
  tree.options_.leaf_capacity = params.leaf_capacity;
  tree.num_leaves_ = params.num_leaves;
  tree.fingerprint_ = graph.Fingerprint();
  tree.build_epoch_ = graph.epoch();

  size_t count = 0;
  int32_t* leaf_of = arena->SectionArray<int32_t>(1, count);
  if (leaf_of == nullptr) return std::nullopt;
  tree.leaf_of_ = Column<int32_t>::Borrow(leaf_of, count);
  uint32_t* leaf_pos = arena->SectionArray<uint32_t>(2, count);
  if (leaf_pos == nullptr) return std::nullopt;
  tree.leaf_pos_ = Column<uint32_t>::Borrow(leaf_pos, count);
  GTreeNodePod* metas = arena->SectionArray<GTreeNodePod>(3, count);
  if (metas == nullptr || count != n) return std::nullopt;

  // Each ragged field: the prefix array must have num_nodes + 1 entries,
  // start at zero, grow monotonically, and end exactly at the payload
  // count — then every per-node slice is a valid in-bounds view.
  tree.nodes_.resize(n);
  auto borrow_field = [&](size_t off_section, auto tag,
                          auto member) -> bool {
    using Elem = decltype(tag);
    size_t off_count = 0;
    const uint64_t* offs =
        arena->SectionArray<uint64_t>(off_section, off_count);
    if (offs == nullptr || off_count != n + 1) return false;
    size_t payload_count = 0;
    Elem* payload = arena->SectionArray<Elem>(off_section + 1, payload_count);
    if (payload == nullptr) return false;
    if (offs[0] != 0 || offs[n] != payload_count) return false;
    for (size_t i = 0; i < n; ++i) {
      if (offs[i] > offs[i + 1]) return false;
      tree.nodes_[i].*member = Column<Elem>::Borrow(
          payload + offs[i], static_cast<size_t>(offs[i + 1] - offs[i]));
    }
    return true;
  };
  if (!borrow_field(4, int32_t{}, &Node::children) ||
      !borrow_field(6, VertexId{}, &Node::vertices) ||
      !borrow_field(8, VertexId{}, &Node::borders) ||
      !borrow_field(10, VertexId{}, &Node::occupants) ||
      !borrow_field(12, uint32_t{}, &Node::border_occ_pos) ||
      !borrow_field(14, Weight{}, &Node::matrix)) {
    return std::nullopt;
  }
  for (size_t i = 0; i < n; ++i) {
    Node& nd = tree.nodes_[i];
    nd.parent = metas[i].parent;
    nd.depth = metas[i].depth;
    nd.is_leaf = metas[i].is_leaf != 0;
    nd.occ_offset = metas[i].occ_offset;
    nd.leaf_begin = metas[i].leaf_begin;
    nd.leaf_end = metas[i].leaf_end;
  }
  if (!ValidTreeStructure(graph.NumVertices(), tree.nodes_, tree.leaf_of_,
                          tree.leaf_pos_)) {
    return std::nullopt;
  }
  tree.arena_ = std::make_shared<ArenaFile>(std::move(*arena));
  return tree;
}

size_t GTree::MemoryBytes() const {
  size_t bytes = nodes_.capacity() * sizeof(Node) + leaf_of_.memory_bytes() +
                 leaf_pos_.memory_bytes();
  for (const Node& nd : nodes_) {
    bytes += nd.children.memory_bytes() + nd.vertices.memory_bytes() +
             nd.borders.memory_bytes() + nd.occupants.memory_bytes() +
             nd.border_occ_pos.memory_bytes() + nd.matrix.memory_bytes();
  }
  return bytes;
}

}  // namespace fannr
