#include "core/accessors.h"

#include <algorithm>

#include "common/io_util.h"
#include "common/simd_varint.h"
#include "common/varint.h"

namespace ksp {

namespace {
constexpr uint32_t kGraphMagic = 0x4B535047u;  // "KSPG"
constexpr uint64_t kGraphHeaderBytes = 24;

/// Writes one adjacency file; `neighbors_of(v)` selects the direction and
/// must be ascending (non-strict) for the delta encoding.
template <typename NeighborsOf>
Status WriteAdjacencyFile(const Graph& graph, const std::string& path,
                          uint32_t page_size, FileSystem* fs,
                          NeighborsOf neighbors_of) {
  const VertexId n = graph.num_vertices();
  const uint64_t data_begin = kGraphHeaderBytes + (n + 1) * 8ULL;
  std::string table;
  table.reserve((n + 1) * 8ULL);
  std::string data;
  for (VertexId v = 0; v < n; ++v) {
    PutFixed64(&table, data_begin + data.size());
    std::span<const VertexId> neighbors = neighbors_of(v);
    PutVarint64(&data, neighbors.size());
    VertexId prev = 0;
    for (size_t i = 0; i < neighbors.size(); ++i) {
      PutVarint64(&data, i == 0 ? neighbors[i] : neighbors[i] - prev);
      prev = neighbors[i];
    }
  }
  PutFixed64(&table, data_begin + data.size());

  std::string header;
  PutFixed32(&header, kGraphMagic);
  PutFixed32(&header, page_size);
  PutFixed64(&header, n);
  PutFixed64(&header, graph.num_edges());
  std::string footer;
  PutFixed32(&footer, kGraphMagic);

  KSP_ASSIGN_OR_RETURN(auto file, fs->NewWritableFile(path));
  for (std::string_view part : {std::string_view(header),
                                std::string_view(table),
                                std::string_view(data),
                                std::string_view(footer)}) {
    KSP_RETURN_NOT_OK(file->Append(part));
  }
  return file->Close();
}
}  // namespace

Status DiskGraphAccessor::Write(const Graph& graph,
                                const std::string& out_path,
                                const std::string& in_path,
                                uint32_t page_size, FileSystem* fs) {
  if (fs == nullptr) fs = DefaultFileSystem();
  KSP_RETURN_NOT_OK(WriteAdjacencyFile(
      graph, out_path, page_size, fs,
      [&graph](VertexId v) { return graph.OutNeighbors(v); }));
  return WriteAdjacencyFile(
      graph, in_path, page_size, fs,
      [&graph](VertexId v) { return graph.InNeighbors(v); });
}

Result<std::unique_ptr<DiskGraphAccessor>> DiskGraphAccessor::Open(
    const std::string& out_path, const std::string& in_path,
    SharedBufferPool* pool, FileSystem* fs) {
  if (fs == nullptr) fs = DefaultFileSystem();
  auto accessor =
      std::unique_ptr<DiskGraphAccessor>(new DiskGraphAccessor());
  accessor->pool_ = pool;
  VertexId out_n = 0;
  VertexId in_n = 0;
  uint64_t out_m = 0;
  uint64_t in_m = 0;
  KSP_RETURN_NOT_OK(OpenDirection(out_path, fs, pool, &accessor->out_,
                                  &out_n, &out_m));
  KSP_RETURN_NOT_OK(
      OpenDirection(in_path, fs, pool, &accessor->in_, &in_n, &in_m));
  if (out_n != in_n || out_m != in_m) {
    return Status::Corruption(
        "graph and transpose disagree on vertex/edge counts");
  }
  accessor->num_vertices_ = out_n;
  accessor->num_edges_ = out_m;
  return accessor;
}

DiskGraphAccessor::~DiskGraphAccessor() {
  if (pool_ == nullptr) return;
  if (out_.file != nullptr) pool_->DropFile(out_.file_id);
  if (in_.file != nullptr) pool_->DropFile(in_.file_id);
}

Status DiskGraphAccessor::OpenDirection(const std::string& path,
                                        FileSystem* fs,
                                        SharedBufferPool* pool,
                                        Direction* dir,
                                        VertexId* num_vertices,
                                        uint64_t* num_edges) {
  KSP_ASSIGN_OR_RETURN(dir->file, fs->NewRandomAccessFile(path));
  const uint64_t file_size = dir->file->Size();

  // Header: [magic u32][page_size u32][num_vertices u64][num_edges u64].
  std::string header;
  KSP_RETURN_NOT_OK(dir->file->Read(0, kGraphHeaderBytes, &header));
  if (header.size() != kGraphHeaderBytes) {
    return CorruptionAt(path, 0, "short header");
  }
  size_t pos = 0;
  uint32_t magic = 0;
  uint32_t page_size = 0;
  uint64_t n = 0;
  KSP_RETURN_NOT_OK(GetFixed32(header, &pos, &magic));
  KSP_RETURN_NOT_OK(GetFixed32(header, &pos, &page_size));
  KSP_RETURN_NOT_OK(GetFixed64(header, &pos, &n));
  KSP_RETURN_NOT_OK(GetFixed64(header, &pos, num_edges));
  if (magic != kGraphMagic) {
    return CorruptionAt(path, 0, "bad graph magic");
  }
  if (page_size != pool->page_size()) {
    return Status::InvalidArgument(
        "graph page size does not match the buffer pool");
  }
  // The offset table and footer must fit in the file; checked before the
  // table size is computed, so a huge count can neither overflow it nor
  // drive the allocation below.
  if (file_size < kGraphHeaderBytes + 12 ||
      n > (file_size - kGraphHeaderBytes - 12) / 8) {
    return CorruptionAt(path, 0, "vertex count exceeds file size");
  }
  const uint64_t table_bytes = (n + 1) * 8ULL;

  // Offset table (memory-resident, like the paper's vertex lookup table).
  std::string table;
  KSP_RETURN_NOT_OK(dir->file->Read(kGraphHeaderBytes, table_bytes, &table));
  if (table.size() != table_bytes) {
    return IOErrorAt(path, kGraphHeaderBytes, "cannot read offset table");
  }
  dir->offsets.resize(n + 1);
  size_t tpos = 0;
  const uint64_t data_begin = kGraphHeaderBytes + table_bytes;
  uint64_t prev = data_begin;
  for (uint64_t v = 0; v <= n; ++v) {
    KSP_RETURN_NOT_OK(GetFixed64(table, &tpos, &dir->offsets[v]));
    if (dir->offsets[v] < prev || dir->offsets[v] > file_size - 4) {
      return CorruptionAt(path, kGraphHeaderBytes + v * 8,
                          "offset table inconsistent");
    }
    prev = dir->offsets[v];
  }
  if (dir->offsets.front() != data_begin) {
    return CorruptionAt(path, kGraphHeaderBytes,
                        "offset table inconsistent");
  }

  // Footer magic.
  std::string footer;
  KSP_RETURN_NOT_OK(dir->file->Read(file_size - 4, 4, &footer));
  size_t fpos = 0;
  uint32_t fmagic = 0;
  if (footer.size() != 4 ||
      !GetFixed32(footer, &fpos, &fmagic).ok() || fmagic != kGraphMagic) {
    return CorruptionAt(path, file_size - 4, "bad graph footer");
  }

  *num_vertices = static_cast<VertexId>(n);
  dir->file_id = pool->RegisterFile(dir->file.get());
  return Status::OK();
}

std::span<const VertexId> DiskGraphAccessor::Decode(
    const Direction& dir, VertexId v, std::vector<VertexId>* scratch,
    GraphCursor* c) const {
  scratch->clear();
  if (!c->status.ok()) return {};
  const uint64_t begin = dir.offsets[v];
  const uint64_t length = dir.offsets[v + 1] - begin;
  Status st =
      pool_->ReadRange(dir.file_id, begin, length, &c->buf, &c->io);
  if (st.ok()) {
    size_t pos = 0;
    uint64_t count = 0;
    st = GetVarint64(c->buf, &pos, &count);
    if (st.ok() && count > length - pos) {
      st = Status::Corruption("neighbour count exceeds record");
    }
    if (st.ok()) {
      scratch->reserve(count);
      st = DecodeVarintDeltas(c->buf, &pos, count, num_vertices_,
                              "neighbour id out of range", scratch);
    }
  }
  if (!st.ok()) {
    c->status = st;
    scratch->clear();
    return {};
  }
  return {scratch->data(), scratch->size()};
}

std::span<const VertexId> DiskGraphAccessor::OutNeighbors(
    VertexId v, GraphCursor* c) const {
  return Decode(out_, v, &c->out_scratch, c);
}

std::span<const VertexId> DiskGraphAccessor::InNeighbors(
    VertexId v, GraphCursor* c) const {
  return Decode(in_, v, &c->in_scratch, c);
}

Status MemoryPostingsAccessor::Fetch(TermId term,
                                     std::vector<VertexId>* backing,
                                     std::span<const VertexId>* view,
                                     PageIoCounters* io) const {
  (void)io;
  if (auto span = index_->PostingsSpan(term); span.has_value()) {
    *view = *span;
    return Status::OK();
  }
  backing->clear();
  KSP_RETURN_NOT_OK(index_->GetPostings(term, backing));
  *view = {backing->data(), backing->size()};
  return Status::OK();
}

Result<std::unique_ptr<DiskPostingsAccessor>> DiskPostingsAccessor::Open(
    const std::string& path, SharedBufferPool* pool, FileSystem* fs) {
  if (fs == nullptr) fs = DefaultFileSystem();
  // Open (and CRC-verify) through the regular codec first, then attach
  // a second handle for pooled page reads.
  KSP_ASSIGN_OR_RETURN(auto index, DiskInvertedIndex::Open(path, fs));
  auto accessor =
      std::unique_ptr<DiskPostingsAccessor>(new DiskPostingsAccessor());
  accessor->index_ = std::move(index);
  KSP_ASSIGN_OR_RETURN(accessor->file_, fs->NewRandomAccessFile(path));
  accessor->pool_ = pool;
  accessor->file_id_ = pool->RegisterFile(accessor->file_.get());
  return accessor;
}

DiskPostingsAccessor::~DiskPostingsAccessor() {
  if (pool_ != nullptr) pool_->DropFile(file_id_);
}

Status DiskPostingsAccessor::Fetch(TermId term,
                                   std::vector<VertexId>* backing,
                                   std::span<const VertexId>* view,
                                   PageIoCounters* io) const {
  backing->clear();
  *view = {};
  uint64_t begin = 0;
  uint64_t end = 0;
  KSP_RETURN_NOT_OK(index_->PostingRange(term, &begin, &end));
  if (end == begin) return Status::OK();

  std::string buf;
  KSP_RETURN_NOT_OK(pool_->ReadRange(
      file_id_, index_->blob_offset() + begin, end - begin, &buf, io));
  size_t pos = 0;
  uint64_t count = 0;
  KSP_RETURN_NOT_OK(GetVarint64(buf, &pos, &count));
  if (count > buf.size() - pos) {
    return Status::Corruption("posting count exceeds record");
  }
  backing->reserve(count);
  KSP_RETURN_NOT_OK(DecodeVarintDeltas(buf, &pos, count, kVarintNoLimit,
                                       nullptr, backing));
  *view = {backing->data(), backing->size()};
  return Status::OK();
}

}  // namespace ksp
