#include "common/io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "faultz/faultz.h"

namespace adv {

namespace {
std::string errno_message(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

FileHandle::FileId id_from_stat(const struct stat& st) {
  FileHandle::FileId id;
  id.dev = static_cast<uint64_t>(st.st_dev);
  id.ino = static_cast<uint64_t>(st.st_ino);
  id.size = static_cast<uint64_t>(st.st_size);
#ifdef __APPLE__
  id.mtime_ns = static_cast<int64_t>(st.st_mtimespec.tv_sec) * 1000000000 +
                st.st_mtimespec.tv_nsec;
#else
  id.mtime_ns = static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                st.st_mtim.tv_nsec;
#endif
  return id;
}
}  // namespace

FileHandle::FileId FileHandle::stat_id(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0)
    throw IoError(errno_message("stat", path));
  return id_from_stat(st);
}

FileHandle::FileHandle(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) throw IoError(errno_message("cannot open", path));
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw IoError(errno_message("fstat", path));
  }
  id_ = id_from_stat(st);
}

FileHandle::~FileHandle() {
  if (map_) ::munmap(map_, map_size_);
  if (fd_ >= 0) ::close(fd_);
}

FileHandle::FileHandle(FileHandle&& o) noexcept
    : fd_(std::exchange(o.fd_, -1)),
      path_(std::move(o.path_)),
      id_(std::exchange(o.id_, FileId{})),
      map_(std::exchange(o.map_, nullptr)),
      map_size_(std::exchange(o.map_size_, 0)) {}

FileHandle& FileHandle::operator=(FileHandle&& o) noexcept {
  if (this != &o) {
    if (map_) ::munmap(map_, map_size_);
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(o.fd_, -1);
    path_ = std::move(o.path_);
    id_ = std::exchange(o.id_, FileId{});
    map_ = std::exchange(o.map_, nullptr);
    map_size_ = std::exchange(o.map_size_, 0);
  }
  return *this;
}

bool FileHandle::map() {
  if (map_) return true;
  uint64_t n = size();
  if (n == 0) return false;  // mmap(0) is invalid; empty files use pread
  // An injected mapping refusal must take the same road as a real one:
  // callers fall back to pread and the query still answers.
  if (!faultz::inj_mmap_allowed()) return false;
  void* p = ::mmap(nullptr, n, PROT_READ, MAP_SHARED, fd_, 0);
  if (p == MAP_FAILED) return false;
  map_ = static_cast<unsigned char*>(p);
  map_size_ = n;
  // Extraction walks chunks front to back; ask the kernel to read ahead.
  (void)::posix_madvise(map_, map_size_, POSIX_MADV_SEQUENTIAL);
  (void)::posix_madvise(map_, map_size_, POSIX_MADV_WILLNEED);
  return true;
}

const unsigned char* FileHandle::mapped_range(std::size_t n,
                                              uint64_t offset) const {
  // Torn mapping: the file shrank under an established map and the next
  // dereference would fault.  Injection surfaces it as the same IoError the
  // bounds check below raises for a genuinely short mapping.
  if (faultz::enabled()) {
    faultz::maybe_throw_io(faultz::Site::kMmapTorn,
                           ("mapped read from '" + path_ + "'").c_str());
  }
  if (!map_ || offset + n > map_size_) {
    throw IoError("short mapped read from '" + path_ + "': wanted " +
                  std::to_string(n) + " bytes at offset " +
                  std::to_string(offset) + ", mapped " +
                  std::to_string(map_size_));
  }
  return map_ + offset;
}

const unsigned char* FileHandle::read_at(
    std::size_t n, uint64_t offset, std::vector<unsigned char>& scratch) const {
  if (map_) return mapped_range(n, offset);
  if (scratch.size() < n) scratch.resize(n);
  pread_exact(scratch.data(), n, offset);
  return scratch.data();
}

uint64_t FileHandle::size() const {
  struct stat st;
  if (::fstat(fd_, &st) != 0) throw IoError(errno_message("fstat", path_));
  return static_cast<uint64_t>(st.st_size);
}

void FileHandle::pread_exact(void* out, std::size_t n, uint64_t offset) const {
  std::size_t got = pread_some(out, n, offset);
  if (got != n) {
    throw IoError("short read from '" + path_ + "': wanted " +
                  std::to_string(n) + " bytes at offset " +
                  std::to_string(offset) + ", got " + std::to_string(got));
  }
}

std::size_t FileHandle::pread_some(void* out, std::size_t n,
                                   uint64_t offset) const {
  unsigned char* p = static_cast<unsigned char*>(out);
  std::size_t total = 0;
  while (total < n) {
    ssize_t r = faultz::inj_pread(fd_, p + total, n - total,
                                  static_cast<off_t>(offset + total));
    if (r < 0) {
      if (errno == EINTR) continue;
      throw IoError(errno_message("pread", path_));
    }
    if (r == 0) break;  // EOF
    total += static_cast<std::size_t>(r);
  }
  return total;
}

FileCache& FileCache::instance() {
  static FileCache cache;
  return cache;
}

std::shared_ptr<const FileHandle> FileCache::open(const std::string& path) {
  // Serve a cached handle only while the on-disk file is still the one it
  // was opened against.  Comparing dev/inode/size *and* nanosecond mtime
  // catches in-place rewrites that keep the size and land within the same
  // second — coarse whole-second mtimes would miss those.  The stat runs
  // before the lock so concurrent opens do not queue behind each other's
  // syscalls; a failed stat (file deleted) drops the entry, and reopening
  // below then reports the real error.
  std::optional<FileHandle::FileId> on_disk;
  try {
    on_disk = FileHandle::stat_id(path);
  } catch (const IoError&) {
  }
  std::lock_guard<std::mutex> lk(mu_);
  auto it = cache_.find(path);
  if (it != cache_.end()) {
    if (on_disk && *on_disk == it->second->id()) return it->second;
    cache_.erase(it);
  }
  // A handle is never mutated after insertion (mapping it later would race
  // with lock-free readers), so a refused mapping stays a pread handle.
  auto handle = std::make_shared<FileHandle>(path);
  (void)handle->map();
  if (cache_.size() >= capacity_) {
    // Evict handles nobody else holds; in-flight ones stay shared.
    for (auto e = cache_.begin(); e != cache_.end();) {
      if (e->second.use_count() == 1) e = cache_.erase(e);
      else ++e;
    }
  }
  cache_.emplace(path, handle);
  return handle;
}

void FileCache::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  cache_.clear();
}

std::size_t FileCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return cache_.size();
}

BufferedWriter::BufferedWriter(const std::string& path,
                               std::size_t buffer_bytes)
    : path_(path), buf_(buffer_bytes) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) throw IoError(errno_message("cannot create", path));
}

BufferedWriter::~BufferedWriter() {
  if (fd_ >= 0) {
    try {
      close();
    } catch (...) {
      // Destructor must not throw; close() explicitly to observe errors.
    }
  }
}

void BufferedWriter::write(const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  while (n > 0) {
    std::size_t room = buf_.size() - used_;
    std::size_t take = n < room ? n : room;
    std::memcpy(buf_.data() + used_, p, take);
    used_ += take;
    p += take;
    n -= take;
    bytes_written_ += take;
    if (used_ == buf_.size()) flush();
  }
}

void BufferedWriter::flush() {
  std::size_t off = 0;
  while (off < used_) {
    ssize_t w = ::write(fd_, buf_.data() + off, used_ - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw IoError(errno_message("write", path_));
    }
    off += static_cast<std::size_t>(w);
  }
  used_ = 0;
}

void BufferedWriter::close() {
  if (fd_ < 0) return;
  flush();
  if (::close(fd_) != 0) {
    fd_ = -1;
    throw IoError(errno_message("close", path_));
  }
  fd_ = -1;
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open '" + path + "' for reading");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot open '" + path + "' for writing");
  out << content;
  if (!out) throw IoError("write failed for '" + path + "'");
}

uint64_t file_size(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0)
    throw IoError(errno_message("stat", path));
  return static_cast<uint64_t>(st.st_size);
}

bool file_exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

uint64_t directory_bytes(const std::filesystem::path& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       it != std::filesystem::recursive_directory_iterator(); ++it) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

}  // namespace adv
