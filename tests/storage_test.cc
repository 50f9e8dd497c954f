// Disk-resident adjacency files ("KSPG"): DiskGraphAccessor::Write and
// Open over a SharedBufferPool, validated against the in-memory CSR in
// both directions, plus every Open-time rejection and a corrupt record.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "common/rng.h"
#include "common/varint.h"
#include "core/accessors.h"
#include "datagen/synthetic.h"
#include "storage/shared_buffer_pool.h"

namespace ksp {
namespace {

Graph MakeRandomGraph(uint32_t n, int edges, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder;
  for (int i = 0; i < edges; ++i) {
    builder.AddEdge(static_cast<VertexId>(rng.NextBounded(n)),
                    static_cast<VertexId>(rng.NextBounded(n)), 0);
  }
  return builder.Finish(n);
}

class DiskGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            ("ksp_disk_graph_" + std::string(info->name()) + "_" +
             std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    out_path_ = dir_ + "/graph-out.bin";
    in_path_ = dir_ + "/graph-in.bin";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static std::string ReadFileBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }
  static void WriteFileBytes(const std::string& path,
                             const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  /// Overwrites 8 bytes at `offset` with a little-endian u64.
  static void PatchFixed64(const std::string& path, uint64_t offset,
                           uint64_t value) {
    std::string bytes = ReadFileBytes(path);
    std::string patch;
    PutFixed64(&patch, value);
    ASSERT_LE(offset + 8, bytes.size());
    bytes.replace(offset, 8, patch);
    WriteFileBytes(path, bytes);
  }

  Result<std::unique_ptr<DiskGraphAccessor>> Open(SharedBufferPool* pool) {
    return DiskGraphAccessor::Open(out_path_, in_path_, pool);
  }

  /// Both directions of every vertex equal the CSR, in CSR order.
  static void ExpectMatchesGraph(const DiskGraphAccessor& disk,
                                 const Graph& graph) {
    ASSERT_EQ(disk.num_vertices(), graph.num_vertices());
    ASSERT_EQ(disk.num_edges(), graph.num_edges());
    GraphCursor cursor;
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      auto out = disk.OutNeighbors(v, &cursor);
      auto want_out = graph.OutNeighbors(v);
      ASSERT_EQ(std::vector<VertexId>(out.begin(), out.end()),
                std::vector<VertexId>(want_out.begin(), want_out.end()))
          << "out " << v;
      auto in = disk.InNeighbors(v, &cursor);
      auto want_in = graph.InNeighbors(v);
      ASSERT_EQ(std::vector<VertexId>(in.begin(), in.end()),
                std::vector<VertexId>(want_in.begin(), want_in.end()))
          << "in " << v;
    }
    EXPECT_TRUE(cursor.status.ok()) << cursor.status.ToString();
  }

  std::string dir_;
  std::string out_path_;
  std::string in_path_;
};

TEST_F(DiskGraphTest, AdjacencyMatchesMemoryGraph) {
  Graph graph = MakeRandomGraph(500, 3000, 99);
  ASSERT_TRUE(
      DiskGraphAccessor::Write(graph, out_path_, in_path_, 256).ok());
  // Four pages of budget: most records are fetched through evictions.
  SharedBufferPool pool(/*budget_bytes=*/4 * 256, /*page_size=*/256);
  auto disk = Open(&pool);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  ExpectMatchesGraph(**disk, graph);
  EXPECT_GT(pool.GetStats().evictions, 0u);
}

TEST_F(DiskGraphTest, BfsMatchesMemoryBfs) {
  Graph graph = MakeRandomGraph(300, 1200, 17);
  ASSERT_TRUE(
      DiskGraphAccessor::Write(graph, out_path_, in_path_, 128).ok());
  // A pool that holds both files whole: a repeated BFS is I/O-free.
  SharedBufferPool pool(/*budget_bytes=*/1 << 20, /*page_size=*/128);
  auto disk = Open(&pool);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();

  using Visit = std::vector<std::pair<VertexId, uint32_t>>;
  auto bfs = [&](VertexId root, auto&& neighbors_of) {
    Visit visited{{root, 0}};
    std::vector<bool> seen(graph.num_vertices(), false);
    seen[root] = true;
    for (size_t qi = 0; qi < visited.size(); ++qi) {
      auto [v, d] = visited[qi];
      for (VertexId w : neighbors_of(v)) {
        if (!seen[w]) {
          seen[w] = true;
          visited.emplace_back(w, d + 1);
        }
      }
    }
    return visited;
  };
  GraphCursor cursor;
  auto disk_bfs = [&](VertexId root) {
    return bfs(root, [&](VertexId v) {
      return (*disk)->OutNeighbors(v, &cursor);
    });
  };
  for (VertexId root : {0u, 7u, 299u}) {
    EXPECT_EQ(disk_bfs(root), bfs(root, [&](VertexId v) {
                return graph.OutNeighbors(v);
              }));
  }
  ASSERT_TRUE(cursor.status.ok()) << cursor.status.ToString();

  const uint64_t misses_before = pool.GetStats().misses;
  disk_bfs(0);
  EXPECT_EQ(pool.GetStats().misses, misses_before);
}

TEST_F(DiskGraphTest, EmptyGraph) {
  GraphBuilder builder;
  Graph graph = builder.Finish(0);
  ASSERT_TRUE(DiskGraphAccessor::Write(graph, out_path_, in_path_, 64).ok());
  SharedBufferPool pool(/*budget_bytes=*/1 << 10, /*page_size=*/64);
  auto disk = Open(&pool);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  EXPECT_EQ((*disk)->num_vertices(), 0u);
  EXPECT_EQ((*disk)->num_edges(), 0u);
}

TEST_F(DiskGraphTest, SyntheticKbGraphRoundTrip) {
  auto kb = GenerateKnowledgeBase(SyntheticProfile::YagoLike(2000));
  ASSERT_TRUE(kb.ok());
  ASSERT_TRUE(DiskGraphAccessor::Write((*kb)->graph(), out_path_, in_path_,
                                       4096)
                  .ok());
  SharedBufferPool pool(/*budget_bytes=*/64 << 10, /*page_size=*/4096);
  auto disk = Open(&pool);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  ExpectMatchesGraph(**disk, (*kb)->graph());
}

TEST_F(DiskGraphTest, MissingFileIsIOError) {
  SharedBufferPool pool(/*budget_bytes=*/1 << 10, /*page_size=*/64);
  auto disk = Open(&pool);
  EXPECT_TRUE(disk.status().IsIOError()) << disk.status().ToString();
}

TEST_F(DiskGraphTest, PageSizeMismatchRejected) {
  Graph graph = MakeRandomGraph(10, 20, 3);
  ASSERT_TRUE(
      DiskGraphAccessor::Write(graph, out_path_, in_path_, 128).ok());
  SharedBufferPool pool(/*budget_bytes=*/1 << 10, /*page_size=*/256);
  auto disk = Open(&pool);
  EXPECT_TRUE(disk.status().IsInvalidArgument()) << disk.status().ToString();
}

TEST_F(DiskGraphTest, CorruptHeaderRejected) {
  Graph graph = MakeRandomGraph(10, 20, 3);
  ASSERT_TRUE(DiskGraphAccessor::Write(graph, out_path_, in_path_, 64).ok());
  WriteFileBytes(out_path_, "garbage garbage garbage garbage!");
  SharedBufferPool pool(/*budget_bytes=*/1 << 10, /*page_size=*/64);
  auto disk = Open(&pool);
  ASSERT_TRUE(disk.status().IsCorruption()) << disk.status().ToString();
  EXPECT_NE(disk.status().message().find("bad graph magic"),
            std::string::npos);
  EXPECT_NE(disk.status().message().find(out_path_), std::string::npos);
}

TEST_F(DiskGraphTest, InconsistentOffsetTableRejected) {
  Graph graph = MakeRandomGraph(50, 200, 5);
  ASSERT_TRUE(DiskGraphAccessor::Write(graph, out_path_, in_path_, 64).ok());
  // Offset entries start after the 24-byte header; make entry 3 point
  // before entry 2 (offsets must be non-decreasing).
  PatchFixed64(in_path_, 24 + 3 * 8, 0);
  SharedBufferPool pool(/*budget_bytes=*/1 << 10, /*page_size=*/64);
  auto disk = Open(&pool);
  ASSERT_TRUE(disk.status().IsCorruption()) << disk.status().ToString();
  EXPECT_NE(disk.status().message().find("offset table inconsistent"),
            std::string::npos);
}

TEST_F(DiskGraphTest, VertexCountLargerThanFileRejected) {
  Graph graph = MakeRandomGraph(50, 200, 5);
  ASSERT_TRUE(DiskGraphAccessor::Write(graph, out_path_, in_path_, 64).ok());
  const uint64_t file_size = std::filesystem::file_size(out_path_);
  // num_vertices sits at byte 8. A count of 2^61 would also overflow the
  // table size if it were computed first; either way nothing may be
  // allocated from it.
  for (uint64_t n : {file_size / 8, uint64_t{1} << 61, ~uint64_t{0}}) {
    SCOPED_TRACE(n);
    ASSERT_TRUE(
        DiskGraphAccessor::Write(graph, out_path_, in_path_, 64).ok());
    PatchFixed64(out_path_, 8, n);
    SharedBufferPool pool(/*budget_bytes=*/1 << 10, /*page_size=*/64);
    auto disk = Open(&pool);
    ASSERT_TRUE(disk.status().IsCorruption()) << disk.status().ToString();
    EXPECT_NE(disk.status().message().find("vertex count exceeds file"),
              std::string::npos);
  }
}

TEST_F(DiskGraphTest, DirectionsDisagreeOnCountsRejected) {
  Graph graph = MakeRandomGraph(50, 200, 5);
  Graph other = MakeRandomGraph(50, 150, 6);
  ASSERT_TRUE(DiskGraphAccessor::Write(graph, out_path_, in_path_, 64).ok());
  const std::string other_out = dir_ + "/other-out.bin";
  ASSERT_TRUE(
      DiskGraphAccessor::Write(other, other_out, in_path_, 64).ok());
  SharedBufferPool pool(/*budget_bytes=*/1 << 10, /*page_size=*/64);
  auto disk = Open(&pool);
  ASSERT_TRUE(disk.status().IsCorruption()) << disk.status().ToString();
  EXPECT_NE(disk.status().message().find("disagree"), std::string::npos);
}

TEST_F(DiskGraphTest, CorruptRecordFailsTheCursorNotTheProcess) {
  // Vertex 0 -> {1, 2}: its record is [count 2][1][1] right after the
  // 4-entry offset table. A count of 100 overruns the record.
  GraphBuilder builder;
  builder.AddEdge(0, 1, 0);
  builder.AddEdge(0, 2, 0);
  Graph graph = builder.Finish(3);
  ASSERT_TRUE(DiskGraphAccessor::Write(graph, out_path_, in_path_, 64).ok());
  std::string bytes = ReadFileBytes(out_path_);
  const size_t record0 = 24 + 4 * 8;
  ASSERT_EQ(bytes[record0], 2);
  bytes[record0] = 100;
  WriteFileBytes(out_path_, bytes);

  SharedBufferPool pool(/*budget_bytes=*/1 << 10, /*page_size=*/64);
  auto disk = Open(&pool);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  GraphCursor cursor;
  EXPECT_TRUE((*disk)->OutNeighbors(0, &cursor).empty());
  EXPECT_TRUE(cursor.status.IsCorruption()) << cursor.status.ToString();
  // The status is sticky: later expansions stay empty until a reset.
  EXPECT_TRUE((*disk)->InNeighbors(1, &cursor).empty());
  cursor.ResetIo();
  auto in = (*disk)->InNeighbors(1, &cursor);
  EXPECT_EQ(std::vector<VertexId>(in.begin(), in.end()),
            std::vector<VertexId>{0});
}

}  // namespace
}  // namespace ksp
