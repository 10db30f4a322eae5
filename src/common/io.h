// RAII file handles and buffered readers/writers over POSIX descriptors.
//
// The data-extraction hot path reads aligned file chunks through a
// read-only memory mapping (extraction decodes straight out of the page
// cache, no copy into a user buffer).  When a file cannot be mapped (it is
// empty, or mmap refuses), the same handle serves positioned reads (pread)
// into the caller's scratch buffer instead.  A single FileHandle can be
// shared by code that walks several chunks of the same file without
// seek-state interference, and a process-wide FileCache shares handles
// across threads so concurrent extraction workers do not reopen (and remap)
// the same files.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.h"

namespace adv {

// Read-only file opened with open(2), optionally memory-mapped.  Move-only.
class FileHandle {
 public:
  // Identity + freshness of the file a handle was opened against.  mtime is
  // kept at nanosecond resolution where the platform records it: a same-size
  // rewrite within the same wall-clock second still changes mtime_ns, so
  // FileCache staleness checks catch it (a whole-second mtime would not).
  struct FileId {
    uint64_t dev = 0;
    uint64_t ino = 0;
    uint64_t size = 0;
    int64_t mtime_ns = 0;

    bool operator==(const FileId&) const = default;
  };

  // FileId of the file currently at `path` (stat).  Throws IoError when the
  // path cannot be stat'ed.
  static FileId stat_id(const std::string& path);

  FileHandle() = default;
  // Opens `path` for reading; throws IoError on failure.
  explicit FileHandle(const std::string& path);
  ~FileHandle();

  FileHandle(FileHandle&& o) noexcept;
  FileHandle& operator=(FileHandle&& o) noexcept;
  FileHandle(const FileHandle&) = delete;
  FileHandle& operator=(const FileHandle&) = delete;

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  // Size of the file in bytes (fstat).
  uint64_t size() const;

  // Identity captured at open time (fstat on the descriptor), used by
  // FileCache to detect in-place rewrites.
  const FileId& id() const { return id_; }

  // Maps the whole file read-only with POSIX_MADV_SEQUENTIAL |
  // POSIX_MADV_WILLNEED readahead advice.  Returns true on success; false
  // when the file is empty or the platform refuses the mapping (read_at
  // then falls back to pread).  Idempotent, but NOT thread-safe: map before
  // publishing the handle to other threads (FileCache does this).
  bool map();

  // Base pointer of the mapping, or nullptr when not mapped.  The mapping
  // is immutable and safe to read from any thread.
  const unsigned char* mapped_data() const { return map_; }
  uint64_t mapped_size() const { return map_size_; }

  // Pointer to `n` bytes at `offset` inside the mapping; throws IoError
  // when not mapped or the range runs past end-of-file (the moral
  // equivalent of pread_exact's short-read error).
  const unsigned char* mapped_range(std::size_t n, uint64_t offset) const;

  // The one read path: `n` bytes at `offset`, straight out of the mapping
  // when the file is mapped, otherwise pread_exact'd into `scratch` (grown
  // as needed).  The pointer stays valid until `scratch` is next written.
  const unsigned char* read_at(std::size_t n, uint64_t offset,
                               std::vector<unsigned char>& scratch) const;

  // Reads exactly `n` bytes at absolute `offset` into `out`.
  // Throws IoError on short read or error.
  void pread_exact(void* out, std::size_t n, uint64_t offset) const;

  // Reads up to `n` bytes at `offset`; returns the number of bytes read
  // (0 at EOF).  Throws IoError only on a hard error.
  std::size_t pread_some(void* out, std::size_t n, uint64_t offset) const;

 private:
  int fd_ = -1;
  std::string path_;
  FileId id_{};
  unsigned char* map_ = nullptr;
  uint64_t map_size_ = 0;
};

// Process-wide cache of shared read-only FileHandles, keyed by path.  All
// extraction workers of all virtual nodes funnel through it, so a file
// scanned by N threads is opened (and mapped) once instead of N times.
// Handles are returned as shared_ptr<const FileHandle>: FileHandle's read
// API is const and thread-safe, and a handle stays alive while any worker
// still holds it even if the cache evicts it meanwhile.
class FileCache {
 public:
  // The process-wide instance.
  static FileCache& instance();

  explicit FileCache(std::size_t capacity = 512) : capacity_(capacity) {}

  // Returns the cached handle for `path`, opening and mapping it on first
  // use.  A file whose mapping is refused (empty, mmap failure, injected
  // mmap.fail) is cached unmapped and served by pread until the entry is
  // dropped.  A cache hit is revalidated against the file's current FileId
  // (dev/inode/size/nanosecond mtime): a rewritten file — even same-size,
  // same-second — gets a fresh handle instead of stale cached bytes.
  // Throws IoError when the file cannot be opened.
  std::shared_ptr<const FileHandle> open(const std::string& path);

  // Drops every cached handle (in-flight shared_ptrs stay valid).  Call
  // after rewriting data files so stale handles are not served.
  void clear();

  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::unordered_map<std::string, std::shared_ptr<const FileHandle>> cache_;
};

// Append-only buffered writer used by the dataset generators and minidb
// loader.  Flushes on destruction; call close() to surface late errors.
class BufferedWriter {
 public:
  explicit BufferedWriter(const std::string& path,
                          std::size_t buffer_bytes = 1 << 20);
  ~BufferedWriter();

  BufferedWriter(const BufferedWriter&) = delete;
  BufferedWriter& operator=(const BufferedWriter&) = delete;

  void write(const void* data, std::size_t n);

  template <typename T>
  void write_pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    write(&v, sizeof v);
  }

  uint64_t bytes_written() const { return bytes_written_; }

  // Flushes and closes; throws IoError if the final flush fails.
  void close();

 private:
  void flush();

  int fd_ = -1;
  std::string path_;
  std::vector<unsigned char> buf_;
  std::size_t used_ = 0;
  uint64_t bytes_written_ = 0;
};

// Whole-file helpers.
std::string read_text_file(const std::string& path);
void write_text_file(const std::string& path, const std::string& content);
uint64_t file_size(const std::string& path);
bool file_exists(const std::string& path);

// Total size in bytes of all regular files under `dir` (recursive).
uint64_t directory_bytes(const std::filesystem::path& dir);

}  // namespace adv
