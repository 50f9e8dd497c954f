#ifndef KSP_STORAGE_SHARED_BUFFER_POOL_H_
#define KSP_STORAGE_SHARED_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/file.h"
#include "common/io_stats.h"
#include "common/result.h"
#include "common/status.h"

namespace ksp {

/// Byte-budgeted LRU page cache shared by every disk-resident index of a
/// KspDatabase (graph, transposed graph, paged R-tree, inverted index).
/// Thread-safe: one pool serves every executor of the database
/// concurrently. Pages are keyed by (file_id, page_id); frames
/// are refcount-pinned while a PageRef is alive, and eviction walks the
/// LRU tail skipping pinned frames. A page larger than the whole budget
/// is still admitted (the pool transiently exceeds its budget rather
/// than failing the read) and becomes the first eviction candidate.
class SharedBufferPool {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t cached_pages = 0;
    uint64_t cached_bytes = 0;
    uint64_t pinned_pages = 0;
    uint64_t budget_bytes = 0;
  };

  /// `budget_bytes` is a soft cap on cached payload bytes (>= 1 page is
  /// always admitted). `page_size` must be >= 1.
  explicit SharedBufferPool(uint64_t budget_bytes,
                            uint32_t page_size = 4096);

  SharedBufferPool(const SharedBufferPool&) = delete;
  SharedBufferPool& operator=(const SharedBufferPool&) = delete;

  /// Registers a file for pooled access; the file must outlive the pool
  /// (or be dropped via DropFile first). Returns the id used as the page
  /// key's file component.
  uint32_t RegisterFile(const RandomAccessFile* file);

  /// Evicts every cached page of `file_id` (pinned pages too — callers
  /// must not hold PageRefs across a DropFile of the same file) and
  /// forgets the file. Used when an index is rebuilt in place.
  void DropFile(uint32_t file_id);

  class PageRef;

  /// Fetches one page, pinning its frame until `*out` is released. `io`
  /// (optional) accumulates hit/miss/eviction deltas and fetch wall time.
  /// Reading entirely past end-of-file is Corruption — page ids come
  /// from validated offset tables, so an out-of-range id means a
  /// corrupted table.
  Status Fetch(uint32_t file_id, uint64_t page_id, PageRef* out,
               PageIoCounters* io);

  /// Reads `length` bytes at `offset`, assembling spanning pages into
  /// `*out` (replacing its contents). Reads past end-of-file are
  /// Corruption.
  Status ReadRange(uint32_t file_id, uint64_t offset, uint64_t length,
                   std::string* out, PageIoCounters* io);

  /// Drops every unpinned cached page (simulates a cold cache).
  void Clear();

  Stats GetStats() const;

  uint32_t page_size() const { return page_size_; }
  uint64_t budget_bytes() const { return budget_bytes_; }

 private:
  struct Frame {
    uint64_t key = 0;
    std::string data;
    uint32_t pins = 0;
  };

  static uint64_t KeyOf(uint32_t file_id, uint64_t page_id) {
    return (static_cast<uint64_t>(file_id) << 48) | page_id;
  }

  /// Evicts unpinned LRU frames until cached bytes fit the budget.
  /// Requires mu_ held.
  void EvictToBudgetLocked();
  void Unpin(Frame* frame);

  const uint64_t budget_bytes_;
  const uint32_t page_size_;

  mutable std::mutex mu_;
  std::vector<const RandomAccessFile*> files_;
  /// MRU at front; list keeps Frame addresses stable for PageRef pins.
  std::list<Frame> frames_;
  std::unordered_map<uint64_t, std::list<Frame>::iterator> index_;
  uint64_t cached_bytes_ = 0;
  uint64_t pinned_pages_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;

  friend class PageRef;
};

/// Movable pin handle over one cached page. The view stays valid (and
/// the frame un-evictable) until the ref is released or destroyed.
class SharedBufferPool::PageRef {
 public:
  PageRef() = default;
  ~PageRef() { Release(); }

  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  PageRef(PageRef&& other) noexcept
      : pool_(other.pool_), frame_(other.frame_) {
    other.pool_ = nullptr;
    other.frame_ = nullptr;
  }
  PageRef& operator=(PageRef&& other) noexcept {
    if (this != &other) {
      Release();
      pool_ = other.pool_;
      frame_ = other.frame_;
      other.pool_ = nullptr;
      other.frame_ = nullptr;
    }
    return *this;
  }

  std::string_view data() const {
    return frame_ ? std::string_view(frame_->data) : std::string_view();
  }
  bool valid() const { return frame_ != nullptr; }

  void Release() {
    if (pool_ != nullptr && frame_ != nullptr) pool_->Unpin(frame_);
    pool_ = nullptr;
    frame_ = nullptr;
  }

 private:
  friend class SharedBufferPool;
  SharedBufferPool* pool_ = nullptr;
  Frame* frame_ = nullptr;
};

}  // namespace ksp

#endif  // KSP_STORAGE_SHARED_BUFFER_POOL_H_
