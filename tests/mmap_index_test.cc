// The arena (mmap) file format of the graph and every index, end to
// end: bitwise round-trips vs the in-memory builds, atomic saves over a
// mapped file, rejection of garbage/truncated/corrupt/mismatched files
// under both validation levels (the ASan CI job turns any stray read
// into a hard failure), and a differential proving that answers
// computed on mmap-loaded indexes are byte-identical to the in-memory
// ones at 1 and 8 threads.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "common/rng.h"
#include "dynamic/update.h"
#include "engine/batch_engine.h"
#include "graph/graph.h"
#include "graph/index_io.h"
#include "sp/ch/contraction_hierarchy.h"
#include "sp/dijkstra.h"
#include "sp/gtree/gtree.h"
#include "sp/label/hub_labels.h"
#include "test_util.h"

namespace fannr {
namespace {

// Header layout (graph/index_io.h): 64 bytes, then the section table of
// {u64 offset, u64 bytes} pairs; payload checksum over [64, file_bytes).
constexpr size_t kV3VersionOffset = 8;
constexpr size_t kV3FingerprintOffset = 12;
constexpr size_t kV3HeaderBytes = 64;
constexpr ArenaValidation kBothValidations[] = {ArenaValidation::kHeaderOnly,
                                                ArenaValidation::kFull};

// Every file lives in a directory of this process's own, removed when
// the process exits. ctest runs each case in its own process, and with
// shared fixed names one process could truncate a file that another has
// mapped (a bus error in the reader).
class ProcessTempDir {
 public:
  ProcessTempDir()
      : path_(::testing::TempDir() + "fannr_mmap_" +
              std::to_string(getpid()) + "/") {
    std::filesystem::create_directories(path_);
  }
  ~ProcessTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string TempPath(const std::string& name) {
  static const ProcessTempDir dir;
  return dir.path() + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Bitwise equality for Weights: the differential contract is "the same
// bits", not "approximately equal".
void ExpectSameBits(Weight a, Weight b, const std::string& label) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b)) << label;
}

std::vector<std::pair<VertexId, VertexId>> SamplePairs(const Graph& graph,
                                                       size_t count,
                                                       uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (size_t i = 0; i < count; ++i) {
    pairs.emplace_back(
        static_cast<VertexId>(rng.NextBounded(graph.NumVertices())),
        static_cast<VertexId>(rng.NextBounded(graph.NumVertices())));
  }
  return pairs;
}

class MmapIndexTest : public ::testing::Test {
 protected:
  Graph graph_ = testing::MakeRandomNetwork(300, 91);
};

// --- Graph --------------------------------------------------------------

TEST_F(MmapIndexTest, GraphV3RoundTripIsBitwiseIdentical) {
  const std::string path = TempPath("graph.v3");
  ASSERT_TRUE(graph_.Save(path));
  auto mapped = Graph::LoadMmap(path);
  ASSERT_TRUE(mapped.has_value());
  EXPECT_TRUE(mapped->MemoryMapped());
  EXPECT_FALSE(graph_.MemoryMapped());

  EXPECT_EQ(mapped->Fingerprint(), graph_.Fingerprint());
  EXPECT_EQ(mapped->bucket_shape().ring, graph_.bucket_shape().ring);
  ExpectSameBits(mapped->bucket_shape().inv_width,
                 graph_.bucket_shape().inv_width, "bucket width");
  ASSERT_EQ(mapped->NumVertices(), graph_.NumVertices());
  ASSERT_EQ(mapped->NumArcs(), graph_.NumArcs());
  for (VertexId u = 0; u < graph_.NumVertices(); ++u) {
    const auto a = graph_.Neighbors(u);
    const auto b = mapped->Neighbors(u);
    ASSERT_EQ(a.size(), b.size()) << "vertex " << u;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].to, b[i].to);
      ExpectSameBits(a[i].weight, b[i].weight, "arc weight");
    }
  }
  ASSERT_EQ(mapped->HasCoordinates(), graph_.HasCoordinates());
  for (VertexId u = 0; u < graph_.NumVertices(); ++u) {
    ExpectSameBits(mapped->Coord(u).x, graph_.Coord(u).x, "coord x");
    ExpectSameBits(mapped->Coord(u).y, graph_.Coord(u).y, "coord y");
  }
}

TEST_F(MmapIndexTest, SaveIsByteDeterministic) {
  // Arc structs carry 4 padding bytes; Save zeroes them so two saves
  // of the same graph produce identical files (required for cache
  // dedup/rsync and for this suite's flip tests to be meaningful).
  const std::string path_a = TempPath("det_a.v3");
  const std::string path_b = TempPath("det_b.v3");
  ASSERT_TRUE(graph_.Save(path_a));
  ASSERT_TRUE(graph_.Save(path_b));
  EXPECT_EQ(ReadFileBytes(path_a), ReadFileBytes(path_b));
}

TEST_F(MmapIndexTest, MappedGraphSurvivesWriteAfterLoad) {
  // The mapping is MAP_PRIVATE copy-on-write: in-place weight updates on
  // a mapped graph must work and must not touch the file.
  const std::string path = TempPath("cow.v3");
  ASSERT_TRUE(graph_.Save(path));
  const std::string before = ReadFileBytes(path);
  auto mapped = Graph::LoadMmap(path);
  ASSERT_TRUE(mapped.has_value());
  const VertexId u = 0;
  const VertexId v = mapped->Neighbors(0).front().to;
  const Weight w = mapped->Neighbors(0).front().weight;
  EdgeWeightUpdate update{u, v, w * 2.0};
  const auto stats = mapped->ApplyWeightUpdates({&update, 1});
  EXPECT_EQ(stats.applied, 1u);
  EXPECT_EQ(mapped->EdgeWeight(u, v).value(), w * 2.0);
  EXPECT_EQ(ReadFileBytes(path), before) << "file mutated through the map";
}

TEST_F(MmapIndexTest, SaveOverAMappedFileLeavesTheMappingIntact) {
  // Save writes a temporary file and renames it over the path, so a
  // process still mapping the old file keeps reading the old bytes. An
  // in-place rewrite would show the new weights through the old map
  // (or SIGBUS on its unread pages had the file shrunk).
  const std::string path = TempPath("atomic.v3");
  ASSERT_TRUE(graph_.Save(path));
  const size_t old_size = ReadFileBytes(path).size();
  auto mapped = Graph::LoadMmap(path);
  ASSERT_TRUE(mapped.has_value());

  Graph heavier = testing::MakeRandomNetwork(300, 91);
  dynamic::UpdateBatch batch;
  for (VertexId u = 0; u < heavier.NumVertices(); ++u) {
    for (const Arc& a : heavier.Neighbors(u)) {
      if (u < a.to) batch.ScaleWeight(heavier, u, a.to, 2.0);
    }
  }
  batch.Apply(heavier);
  ASSERT_TRUE(heavier.Save(path));
  EXPECT_EQ(ReadFileBytes(path).size(), old_size);

  for (VertexId u = 0; u < graph_.NumVertices(); ++u) {
    const auto want = graph_.Neighbors(u);
    const auto got = mapped->Neighbors(u);
    ASSERT_EQ(want.size(), got.size()) << "vertex " << u;
    for (size_t i = 0; i < want.size(); ++i) {
      ExpectSameBits(got[i].weight, want[i].weight, "weight via old map");
    }
  }
  auto reloaded = Graph::LoadMmap(path, ArenaValidation::kFull);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->Fingerprint(), heavier.Fingerprint());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp." +
                                       std::to_string(getpid())));
}

// --- File kinds: the graph and each index, type-erased -----------------

struct V3Kind {
  std::string name;
  // Builds the index in memory and saves it to `path`.
  std::function<bool(const Graph&, const std::string& path)> save;
  // Attempts an mmap load against `graph` (for the graph file itself:
  // loads and carries `graph`'s fingerprint).
  std::function<bool(const Graph&, const std::string& path, ArenaValidation)>
      loads;
  // Distance through the in-memory index / through the mapped index.
  std::function<Weight(const Graph&, VertexId, VertexId)> mem_distance;
  std::function<Weight(const Graph&, const std::string& path, VertexId,
                       VertexId)>
      map_distance;
};

std::vector<V3Kind> AllV3Kinds() {
  std::vector<V3Kind> kinds;
  kinds.push_back(
      {"Graph",
       [](const Graph& g, const std::string& path) { return g.Save(path); },
       [](const Graph& g, const std::string& path, ArenaValidation v) {
         auto mapped = Graph::LoadMmap(path, v);
         return mapped.has_value() && mapped->Fingerprint() == g.Fingerprint();
       },
       [](const Graph& g, VertexId u, VertexId v) {
         return DijkstraSearch(g).Distance(u, v);
       },
       [](const Graph&, const std::string& path, VertexId u, VertexId v) {
         auto mapped = Graph::LoadMmap(path);
         return DijkstraSearch(*mapped).Distance(u, v);
       }});
  kinds.push_back(
      {"HubLabels",
       [](const Graph& g, const std::string& path) {
         auto labels = HubLabels::Build(g);
         return labels.has_value() && labels->Save(path);
       },
       [](const Graph& g, const std::string& path, ArenaValidation v) {
         return HubLabels::LoadMmap(g, path, v).has_value();
       },
       [](const Graph& g, VertexId u, VertexId v) {
         return HubLabels::Build(g)->Distance(u, v);
       },
       [](const Graph& g, const std::string& path, VertexId u, VertexId v) {
         return HubLabels::LoadMmap(g, path)->Distance(u, v);
       }});
  kinds.push_back(
      {"GTree",
       [](const Graph& g, const std::string& path) {
         GTree::Options options;
         options.leaf_capacity = 16;
         return GTree::Build(g, options).Save(path);
       },
       [](const Graph& g, const std::string& path, ArenaValidation v) {
         return GTree::LoadMmap(g, path, v).has_value();
       },
       [](const Graph& g, VertexId u, VertexId v) {
         GTree::Options options;
         options.leaf_capacity = 16;
         return GTree::Build(g, options).Distance(u, v);
       },
       [](const Graph& g, const std::string& path, VertexId u, VertexId v) {
         return GTree::LoadMmap(g, path)->Distance(u, v);
       }});
  kinds.push_back(
      {"ContractionHierarchy",
       [](const Graph& g, const std::string& path) {
         return ContractionHierarchy::Build(g).Save(path);
       },
       [](const Graph& g, const std::string& path, ArenaValidation v) {
         return ContractionHierarchy::LoadMmap(g, path, v).has_value();
       },
       [](const Graph& g, VertexId u, VertexId v) {
         return ContractionHierarchy::Build(g).Distance(u, v);
       },
       [](const Graph& g, const std::string& path, VertexId u, VertexId v) {
         return ContractionHierarchy::LoadMmap(g, path)->Distance(u, v);
       }});
  return kinds;
}

TEST_F(MmapIndexTest, IndexV3DistancesAreBitwiseIdenticalToInMemory) {
  const auto pairs = SamplePairs(graph_, 64, 0xA11Au);
  for (const V3Kind& kind : AllV3Kinds()) {
    const std::string path = TempPath(kind.name + ".v3");
    ASSERT_TRUE(kind.save(graph_, path)) << kind.name;
    ASSERT_TRUE(kind.loads(graph_, path, ArenaValidation::kFull)) << kind.name;
    for (const auto& [u, v] : pairs) {
      ExpectSameBits(kind.mem_distance(graph_, u, v),
                     kind.map_distance(graph_, path, u, v),
                     kind.name + " distance");
    }
  }
}

// --- Round trips and wrong-file rejection, one object at a time --------

TEST(SerializeTest, GraphRoundTrip) {
  Graph original = testing::MakeSmallGrid(8, 9);
  const std::string path = TempPath("grid.v3");
  ASSERT_TRUE(original.Save(path));
  auto loaded = Graph::LoadMmap(path, ArenaValidation::kFull);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->NumVertices(), original.NumVertices());
  EXPECT_EQ(loaded->NumEdges(), original.NumEdges());
  ASSERT_TRUE(loaded->HasCoordinates());
  EXPECT_TRUE(loaded->EuclideanConsistent());
  const auto a = DijkstraSssp(original, 0);
  const auto b = DijkstraSssp(*loaded, 0);
  for (size_t v = 0; v < a.size(); ++v) EXPECT_DOUBLE_EQ(a[v], b[v]);
}

TEST(SerializeTest, GraphLoadRejectsCorruptStreams) {
  // A graph file cut to a third, and a well-formed arena file of another
  // kind (hub labels of the same graph: right version and fingerprint,
  // wrong magic).
  Graph g = testing::MakeSmallGrid(5, 5);
  const std::string path = TempPath("grid_cut.v3");
  ASSERT_TRUE(g.Save(path));
  const std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes.substr(0, bytes.size() / 3));
  const std::string labels_path = TempPath("grid_phl.v3");
  auto labels = HubLabels::Build(g);
  ASSERT_TRUE(labels.has_value());
  ASSERT_TRUE(labels->Save(labels_path));
  for (const ArenaValidation validation : kBothValidations) {
    EXPECT_FALSE(Graph::LoadMmap(path, validation).has_value());
    EXPECT_FALSE(Graph::LoadMmap(labels_path, validation).has_value());
  }
}

TEST(SerializeTest, HubLabelsRoundTrip) {
  Graph g = testing::MakeRandomNetwork(300, 91);
  auto labels = HubLabels::Build(g);
  ASSERT_TRUE(labels.has_value());
  const std::string path = TempPath("phl_round.v3");
  ASSERT_TRUE(labels->Save(path));
  auto loaded = HubLabels::LoadMmap(g, path, ArenaValidation::kFull);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->TotalLabelEntries(), labels->TotalLabelEntries());
  for (const auto& [u, v] : SamplePairs(g, 20, 92)) {
    EXPECT_DOUBLE_EQ(loaded->Distance(u, v), labels->Distance(u, v));
  }
}

TEST(SerializeTest, HubLabelsRejectsGarbage) {
  // The graph, G-tree and CH files of the same graph carry the right
  // version and fingerprint; only the magic tells them apart.
  Graph g = testing::MakeRandomNetwork(300, 91);
  const std::string path = TempPath("not_phl.v3");
  for (const V3Kind& kind : AllV3Kinds()) {
    if (kind.name == "HubLabels") continue;
    ASSERT_TRUE(kind.save(g, path)) << kind.name;
    for (const ArenaValidation validation : kBothValidations) {
      EXPECT_FALSE(HubLabels::LoadMmap(g, path, validation).has_value())
          << kind.name;
    }
  }
  WriteFileBytes(path, "not a hub label file at all");
  EXPECT_FALSE(HubLabels::LoadMmap(g, path).has_value());
}

TEST(SerializeTest, HubLabelsRejectsWrongGraph) {
  // Same vertex count, different edges and weights: only the edge count
  // and weight checksum of the fingerprint can tell.
  Graph g = testing::MakeRandomNetwork(300, 91);
  Graph other = testing::MakeRandomNetwork(300, 96);
  ASSERT_EQ(g.NumVertices(), other.NumVertices());
  auto labels = HubLabels::Build(g);
  ASSERT_TRUE(labels.has_value());
  const std::string path = TempPath("phl_wrong.v3");
  ASSERT_TRUE(labels->Save(path));
  for (const ArenaValidation validation : kBothValidations) {
    EXPECT_FALSE(HubLabels::LoadMmap(other, path, validation).has_value());
  }
}

TEST(SerializeTest, GTreeRoundTrip) {
  Graph g = testing::MakeRandomNetwork(400, 93);
  GTree::Options options;
  options.leaf_capacity = 16;
  GTree tree = GTree::Build(g, options);
  const std::string path = TempPath("gtree_round.v3");
  ASSERT_TRUE(tree.Save(path));
  auto loaded = GTree::LoadMmap(g, path, ArenaValidation::kFull);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->NumTreeNodes(), tree.NumTreeNodes());
  EXPECT_EQ(loaded->NumLeaves(), tree.NumLeaves());
  DijkstraSearch dijkstra(g);
  for (const auto& [u, v] : SamplePairs(g, 25, 94)) {
    EXPECT_NEAR(loaded->Distance(u, v), dijkstra.Distance(u, v), 1e-6);
  }
}

TEST(SerializeTest, GTreeRejectsWrongGraph) {
  Graph g = testing::MakeRandomNetwork(400, 95);
  Graph other = testing::MakeRandomNetwork(200, 96);
  GTree::Options options;
  options.leaf_capacity = 16;
  const std::string path = TempPath("gtree_wrong.v3");
  ASSERT_TRUE(GTree::Build(g, options).Save(path));
  for (const ArenaValidation validation : kBothValidations) {
    EXPECT_FALSE(GTree::LoadMmap(other, path, validation).has_value());
  }
}

TEST(SerializeTest, ChRoundTrip) {
  Graph g = testing::MakeRandomNetwork(300, 97);
  ContractionHierarchy ch = ContractionHierarchy::Build(g);
  const std::string path = TempPath("ch_round.v3");
  ASSERT_TRUE(ch.Save(path));
  auto loaded = ContractionHierarchy::LoadMmap(g, path, ArenaValidation::kFull);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->NumShortcuts(), ch.NumShortcuts());
  DijkstraSearch dijkstra(g);
  for (const auto& [u, v] : SamplePairs(g, 20, 98)) {
    EXPECT_NEAR(loaded->Distance(u, v), dijkstra.Distance(u, v), 1e-6);
  }
}

// --- Corruption ---------------------------------------------------------

// Writes `bytes` as a file and expects `kind` to reject it under both
// validations.
void ExpectRejected(const V3Kind& kind, const Graph& graph,
                    const std::string& bytes, const std::string& label) {
  const std::string path = TempPath(kind.name + "_bad.v3");
  WriteFileBytes(path, bytes);
  for (const ArenaValidation validation : kBothValidations) {
    EXPECT_FALSE(kind.loads(graph, path, validation)) << kind.name << label;
  }
}

template <typename T>
void PutPod(std::string& bytes, size_t offset, T value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
}

template <typename T>
T GetPod(const std::string& bytes, size_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

class CorruptIndexTest : public MmapIndexTest {
 protected:
  std::string SavedBytes(const V3Kind& kind) {
    const std::string path = TempPath(kind.name + "_clean.v3");
    EXPECT_TRUE(kind.save(graph_, path)) << kind.name;
    return ReadFileBytes(path);
  }
};

TEST_F(CorruptIndexTest, IntactFileLoads) {
  for (const V3Kind& kind : AllV3Kinds()) {
    const std::string path = TempPath(kind.name + "_intact.v3");
    ASSERT_TRUE(kind.save(graph_, path));
    ASSERT_GT(ReadFileBytes(path).size(), kV3HeaderBytes) << kind.name;
    for (const ArenaValidation validation : kBothValidations) {
      EXPECT_TRUE(kind.loads(graph_, path, validation)) << kind.name;
    }
  }
}

TEST_F(CorruptIndexTest, BitFlippedMagicRejected) {
  for (const V3Kind& kind : AllV3Kinds()) {
    std::string bytes = SavedBytes(kind);
    bytes[0] ^= 0x01;
    ExpectRejected(kind, graph_, bytes, " magic");
  }
}

TEST_F(CorruptIndexTest, StaleFormatVersionRejected) {
  // Versions 1 and 2 are the retired formats: their files must fail on
  // the version word, never be misread.
  for (const V3Kind& kind : AllV3Kinds()) {
    for (const uint32_t old_version : {1u, 2u}) {
      std::string bytes = SavedBytes(kind);
      PutPod(bytes, kV3VersionOffset, old_version);
      ExpectRejected(kind, graph_, bytes,
                     " version " + std::to_string(old_version));
    }
  }
}

TEST_F(MmapIndexTest, BadHeadersAreRejected) {
  // The words past the fingerprint: section count, checksum flag, file
  // size and the section table. Each lie is caught structurally.
  constexpr size_t kSectionCountOffset = 36;
  constexpr size_t kFlagsOffset = 40;
  constexpr size_t kFileBytesOffset = 56;
  for (const V3Kind& kind : AllV3Kinds()) {
    const std::string path = TempPath(kind.name + "_hdr.v3");
    ASSERT_TRUE(kind.save(graph_, path));
    const std::string clean = ReadFileBytes(path);

    for (const uint32_t count : {0u, ~0u}) {
      std::string bytes = clean;
      PutPod(bytes, kSectionCountOffset, count);
      ExpectRejected(kind, graph_, bytes, " section count");
    }
    std::string bytes = clean;
    PutPod<uint64_t>(bytes, kFileBytesOffset, clean.size() + 64);
    ExpectRejected(kind, graph_, bytes, " file size word");

    bytes = clean;
    const uint64_t section0 = GetPod<uint64_t>(clean, kV3HeaderBytes);
    PutPod<uint64_t>(bytes, kV3HeaderBytes, section0 + 1);
    ExpectRejected(kind, graph_, bytes, " misaligned section");

    bytes = clean;
    PutPod<uint64_t>(bytes, kV3HeaderBytes + 8, clean.size());
    ExpectRejected(kind, graph_, bytes, " section past the end");

    // A file without a payload checksum opens only under kHeaderOnly.
    bytes = clean;
    PutPod<uint64_t>(bytes, kFlagsOffset, 0);
    const std::string no_sum_path = TempPath(kind.name + "_nosum.v3");
    WriteFileBytes(no_sum_path, bytes);
    EXPECT_TRUE(kind.loads(graph_, no_sum_path, ArenaValidation::kHeaderOnly))
        << kind.name;
    EXPECT_FALSE(kind.loads(graph_, no_sum_path, ArenaValidation::kFull))
        << kind.name;
  }
}

TEST_F(MmapIndexTest, V3RejectsV2StreamFileAndViceVersa) {
  // A cache file written by the retired v2 stream format (same magic,
  // version word 2, the fingerprint, then each array as a u64 count and
  // its elements) must fail cleanly, not misparse. The other direction
  // needed the v2 stream loader, which is gone; the v2 bytes here are
  // assembled from the v3 file's two hub-label sections.
  auto labels = HubLabels::Build(graph_);
  ASSERT_TRUE(labels.has_value());
  const std::string v3_path = TempPath("phl_for_v2.v3");
  ASSERT_TRUE(labels->Save(v3_path));
  const std::string v3 = ReadFileBytes(v3_path);

  std::string v2 = v3.substr(0, 36);
  PutPod<uint32_t>(v2, kV3VersionOffset, 2);
  for (size_t section = 0; section < 2; ++section) {
    const size_t entry = kV3HeaderBytes + 16 * section;
    const uint64_t offset = GetPod<uint64_t>(v3, entry);
    const uint64_t bytes = GetPod<uint64_t>(v3, entry + 8);
    const uint64_t elements =
        bytes / (section == 0 ? sizeof(size_t) : sizeof(HubLabels::Entry));
    v2.append(reinterpret_cast<const char*>(&elements), sizeof(elements));
    v2.append(v3, offset, bytes);
  }
  const std::string v2_path = TempPath("v2_as_v3.bin");
  WriteFileBytes(v2_path, v2);
  for (const ArenaValidation validation : kBothValidations) {
    EXPECT_FALSE(HubLabels::LoadMmap(graph_, v2_path, validation).has_value());
  }
}

TEST_F(MmapIndexTest, TruncatedMapsAreRejected) {
  // Cuts inside the header and the section table.
  for (const V3Kind& kind : AllV3Kinds()) {
    const std::string path = TempPath(kind.name + "_trunc.v3");
    ASSERT_TRUE(kind.save(graph_, path));
    const std::string clean = ReadFileBytes(path);
    ASSERT_GT(clean.size(), kV3HeaderBytes + 16);
    for (size_t keep :
         {size_t{0}, size_t{4}, kV3HeaderBytes - 1, kV3HeaderBytes + 8}) {
      ExpectRejected(kind, graph_, clean.substr(0, keep),
                     " truncated to " + std::to_string(keep) + " bytes");
    }
  }
}

TEST_F(CorruptIndexTest, TruncatedFileRejected) {
  // Cuts inside the payload: at the last section's start, mid-file, and
  // one byte short.
  for (const V3Kind& kind : AllV3Kinds()) {
    const std::string clean = SavedBytes(kind);
    const uint32_t sections = GetPod<uint32_t>(clean, 36);
    ASSERT_GT(sections, 0u);
    const uint64_t last_section =
        GetPod<uint64_t>(clean, kV3HeaderBytes + 16 * (sections - 1));
    for (size_t keep : {static_cast<size_t>(last_section), clean.size() / 2,
                        clean.size() - 1}) {
      ExpectRejected(kind, graph_, clean.substr(0, keep),
                     " truncated to " + std::to_string(keep) + " bytes");
    }
  }
}

TEST_F(MmapIndexTest, GarbageFilesAreRejected) {
  const std::string text = "dimacs? never heard of it";
  for (const std::string& bytes :
       {text, std::string(4096, '\xAB'), std::string(4096, '\0')}) {
    for (const V3Kind& kind : AllV3Kinds()) {
      ExpectRejected(kind, graph_, bytes, " garbage");
    }
  }
}

TEST_F(MmapIndexTest, FingerprintMismatchIsRejectedInOHeaderTime) {
  // The O(header) open must still reject an index built against a
  // different graph — that check reads only the 64-byte header, never
  // the payload.
  Graph other = testing::MakeRandomNetwork(250, 92);
  for (const V3Kind& kind : AllV3Kinds()) {
    const std::string path = TempPath(kind.name + "_fp.v3");
    ASSERT_TRUE(kind.save(graph_, path));
    EXPECT_FALSE(kind.loads(other, path, ArenaValidation::kHeaderOnly))
        << kind.name;

    std::string bytes = ReadFileBytes(path);
    bytes[kV3FingerprintOffset + 16] ^= 0xFF;  // stored weight checksum
    const std::string flip_path = TempPath(kind.name + "_fpflip.v3");
    WriteFileBytes(flip_path, bytes);
    EXPECT_FALSE(kind.loads(graph_, flip_path, ArenaValidation::kHeaderOnly))
        << kind.name;
  }
}

TEST_F(CorruptIndexTest, FingerprintMismatchRejected) {
  // The same two cases under kFull: the payload checksum still matches
  // (the header is outside it), so only the fingerprint check can fail.
  Graph other = testing::MakeRandomNetwork(150, 52);
  for (const V3Kind& kind : AllV3Kinds()) {
    const std::string path = TempPath(kind.name + "_fpfull.v3");
    ASSERT_TRUE(kind.save(graph_, path));
    EXPECT_FALSE(kind.loads(other, path, ArenaValidation::kFull)) << kind.name;

    std::string bytes = ReadFileBytes(path);
    bytes[kV3FingerprintOffset + 16] ^= 0xFF;
    WriteFileBytes(path, bytes);
    EXPECT_FALSE(kind.loads(graph_, path, ArenaValidation::kFull))
        << kind.name;
  }
}
TEST_F(CorruptIndexTest, FileFromPreUpdateGraphRejected) {
  // The dynamic-network case: a file saved before a weight update must
  // not load against the updated graph (same topology, new weights).
  for (const V3Kind& kind : AllV3Kinds()) {
    Graph g = testing::MakeRandomNetwork(200, 53);
    const std::string path = TempPath(kind.name + "_preupdate.v3");
    ASSERT_TRUE(kind.save(g, path));
    const VertexId v = g.Neighbors(0).front().to;
    dynamic::UpdateBatch batch;
    batch.ScaleWeight(g, 0, v, 2.0);
    batch.Apply(g);
    for (const ArenaValidation validation : kBothValidations) {
      EXPECT_FALSE(kind.loads(g, path, validation)) << kind.name;
    }
    // Restoring the weight restores the fingerprint; the file is
    // trustworthy again (weights match bit for bit).
    dynamic::UpdateBatch restore;
    restore.ScaleWeight(g, 0, v, 0.5);
    restore.Apply(g);
    for (const ArenaValidation validation : kBothValidations) {
      EXPECT_TRUE(kind.loads(g, path, validation)) << kind.name;
    }
  }
}

TEST_F(CorruptIndexTest, NonMonotonicHubLabelOffsetsRejected) {
  // Section 0 of a hub-label file is the per-vertex offsets array. Blow
  // up offsets[1] so the prefix array decreases at the next element;
  // Distance() would index entries out of bounds if LoadMmap accepted
  // this. kHeaderOnly must catch it structurally, kFull by checksum.
  auto labels = HubLabels::Build(graph_);
  ASSERT_TRUE(labels.has_value());
  const std::string path = TempPath("phl_offsets.v3");
  ASSERT_TRUE(labels->Save(path));
  std::string bytes = ReadFileBytes(path);
  uint64_t section0 = 0;
  std::memcpy(&section0, bytes.data() + kV3HeaderBytes, sizeof(section0));
  const size_t offset1 = section0 + sizeof(size_t);
  ASSERT_LT(offset1 + 8, bytes.size());
  for (size_t b = 0; b < 8; ++b) bytes[offset1 + b] = '\x7f';
  const std::string bad_path = TempPath("phl_offsets_bad.v3");
  WriteFileBytes(bad_path, bytes);
  for (const ArenaValidation validation : kBothValidations) {
    EXPECT_FALSE(HubLabels::LoadMmap(graph_, bad_path, validation).has_value());
  }
}

TEST_F(MmapIndexTest, FullValidationCatchesEveryPayloadFlip) {
  // The payload checksum covers [64, file_bytes): under kFull, ANY
  // flipped payload byte must be caught. (kHeaderOnly intentionally
  // skips this — that trade is the point of the format — but then the
  // structural validators below still keep us memory-safe.)
  for (const V3Kind& kind : AllV3Kinds()) {
    const std::string path = TempPath(kind.name + "_full.v3");
    ASSERT_TRUE(kind.save(graph_, path));
    const std::string clean = ReadFileBytes(path);
    for (size_t pos = kV3HeaderBytes; pos < clean.size();
         pos += 1 + pos / 7) {
      std::string bytes = clean;
      bytes[pos] ^= 0x40;
      const std::string flip_path = TempPath(kind.name + "_pflip.v3");
      WriteFileBytes(flip_path, bytes);
      EXPECT_FALSE(kind.loads(graph_, flip_path, ArenaValidation::kFull))
          << kind.name << " flip at " << pos << " survived kFull";
    }
  }
}

TEST_F(MmapIndexTest, SingleByteCorruptionNeverCrashesUnderHeaderOnly) {
  // The ASan contract for the fast path: a flipped byte anywhere in the
  // file may be rejected or may load (payload flips are invisible to the
  // O(header) open), but it must never crash, read out of bounds, or
  // abort. Structure validators run on every load exactly so that a
  // survivor is still memory-safe to query.
  const auto pairs = SamplePairs(graph_, 4, 0xC0DEu);
  for (const V3Kind& kind : AllV3Kinds()) {
    const std::string path = TempPath(kind.name + "_sweep.v3");
    ASSERT_TRUE(kind.save(graph_, path));
    const std::string clean = ReadFileBytes(path);
    for (size_t pos = 0; pos < clean.size(); pos += 1 + pos / 7) {
      std::string bytes = clean;
      bytes[pos] ^= 0x40;
      const std::string flip_path = TempPath(kind.name + "_sflip.v3");
      WriteFileBytes(flip_path, bytes);
      if (!kind.loads(graph_, flip_path, ArenaValidation::kHeaderOnly)) {
        continue;
      }
      // Survivor: exercise the query path. Answers may be wrong (the
      // flip hit payload data); reads must stay in bounds.
      for (const auto& [u, v] : pairs) {
        (void)kind.map_distance(graph_, flip_path, u, v);
      }
    }
  }
}

TEST_F(CorruptIndexTest, SingleByteCorruptionNeverCrashes) {
  // Every byte of the header and the section table flipped, under
  // kFull (FullValidationCatchesEveryPayloadFlip covers the payload).
  // The checksum does not cover the 64-byte header, so a flip there may
  // load; a survivor must still answer without reading out of bounds.
  const auto pairs = SamplePairs(graph_, 4, 0xC0DEu);
  for (const V3Kind& kind : AllV3Kinds()) {
    const std::string clean = SavedBytes(kind);
    const uint64_t first_section = GetPod<uint64_t>(clean, kV3HeaderBytes);
    for (size_t pos = 0; pos < first_section; ++pos) {
      std::string bytes = clean;
      bytes[pos] ^= 0x40;
      const std::string flip_path = TempPath(kind.name + "_hflip.v3");
      WriteFileBytes(flip_path, bytes);
      if (!kind.loads(graph_, flip_path, ArenaValidation::kFull)) continue;
      for (const auto& [u, v] : pairs) {
        (void)kind.map_distance(graph_, flip_path, u, v);
      }
    }
  }
}

// --- Differential: mmap-loaded vs in-memory through the batch engine ----

TEST_F(MmapIndexTest, BatchAnswersOnMappedIndexesAreByteIdentical) {
  GTree::Options gtree_options;
  gtree_options.leaf_capacity = 16;
  GTree gtree = GTree::Build(graph_, gtree_options);
  auto labels = HubLabels::Build(graph_);
  ASSERT_TRUE(labels.has_value());
  ContractionHierarchy ch = ContractionHierarchy::Build(graph_);

  const std::string gtree_path = TempPath("diff_gtree.v3");
  const std::string labels_path = TempPath("diff_phl.v3");
  const std::string ch_path = TempPath("diff_ch.v3");
  ASSERT_TRUE(gtree.Save(gtree_path));
  ASSERT_TRUE(labels->Save(labels_path));
  ASSERT_TRUE(ch.Save(ch_path));
  auto mapped_gtree = GTree::LoadMmap(graph_, gtree_path);
  auto mapped_labels = HubLabels::LoadMmap(graph_, labels_path);
  auto mapped_ch = ContractionHierarchy::LoadMmap(graph_, ch_path);
  ASSERT_TRUE(mapped_gtree.has_value());
  ASSERT_TRUE(mapped_labels.has_value());
  ASSERT_TRUE(mapped_ch.has_value());

  Rng rng(0xD1FFu);
  const IndexedVertexSet p(graph_.NumVertices(),
                           testing::SampleVertices(graph_, 24, rng));
  const IndexedVertexSet q(graph_.NumVertices(),
                           testing::SampleVertices(graph_, 8, rng));
  std::vector<FannrQuery> jobs;
  for (int i = 0; i < 12; ++i) {
    FannrQuery job;
    job.query = FannQuery{&graph_, &p, &q, i % 2 == 0 ? 0.5 : 0.75,
                          i % 3 == 0 ? Aggregate::kMax : Aggregate::kSum};
    job.algorithm = FannAlgorithm::kGd;
    jobs.push_back(job);
  }

  GphiResources in_memory;
  in_memory.graph = &graph_;
  in_memory.gtree = &gtree;
  in_memory.labels = &*labels;
  in_memory.ch = &ch;
  GphiResources mapped = in_memory;
  mapped.gtree = &*mapped_gtree;
  mapped.labels = &*mapped_labels;
  mapped.ch = &*mapped_ch;

  for (const GphiKind kind :
       {GphiKind::kGTree, GphiKind::kPhl, GphiKind::kCh}) {
    for (const size_t threads : {size_t{1}, size_t{8}}) {
      BatchOptions options;
      options.num_threads = threads;
      options.gphi_kind = kind;
      BatchQueryEngine mem_engine(in_memory, options);
      BatchQueryEngine map_engine(mapped, options);
      const auto mem_results = mem_engine.Run(jobs);
      const auto map_results = map_engine.Run(jobs);
      ASSERT_EQ(mem_results.size(), map_results.size());
      for (size_t i = 0; i < mem_results.size(); ++i) {
        const std::string label = "kind " + std::string(GphiKindName(kind)) +
                                  " threads " + std::to_string(threads) +
                                  " job " + std::to_string(i);
        EXPECT_EQ(mem_results[i].best, map_results[i].best) << label;
        ExpectSameBits(mem_results[i].distance, map_results[i].distance,
                       label);
        EXPECT_EQ(mem_results[i].subset, map_results[i].subset) << label;
      }
    }
  }
}

// --- Parallel build determinism -----------------------------------------

TEST_F(MmapIndexTest, ParallelIndexBuildsAreBitwiseIdenticalToSequential) {
  // GTree and HubLabels accept a ThreadPool; the parallel build must be
  // indistinguishable from the sequential one. Compare through Save
  // bytes — the strictest possible equality.
  ThreadPool pool(4);

  GTree::Options gtree_options;
  gtree_options.leaf_capacity = 16;
  const std::string seq_g = TempPath("seq_gtree.v3");
  const std::string par_g = TempPath("par_gtree.v3");
  ASSERT_TRUE(GTree::Build(graph_, gtree_options).Save(seq_g));
  ASSERT_TRUE(GTree::Build(graph_, gtree_options, &pool).Save(par_g));
  EXPECT_EQ(ReadFileBytes(seq_g), ReadFileBytes(par_g))
      << "parallel G-tree build diverged from sequential";

  const std::string seq_l = TempPath("seq_phl.v3");
  const std::string par_l = TempPath("par_phl.v3");
  auto seq_labels = HubLabels::Build(graph_);
  auto par_labels = HubLabels::Build(graph_, HubLabels::Options{}, &pool);
  ASSERT_TRUE(seq_labels.has_value());
  ASSERT_TRUE(par_labels.has_value());
  ASSERT_TRUE(seq_labels->Save(seq_l));
  ASSERT_TRUE(par_labels->Save(par_l));
  EXPECT_EQ(ReadFileBytes(seq_l), ReadFileBytes(par_l))
      << "parallel hub-label build diverged from sequential";
}

}  // namespace
}  // namespace fannr
