#include "minidb/heap.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>

#include "common/error.h"

namespace adv::minidb {

namespace {

std::size_t payload_bytes(const std::vector<HeapColumn>& cols) {
  std::size_t n = 0;
  for (const auto& c : cols) n += size_of(c.type);
  return n;
}

// Header page: magic, column metadata, tuple/page counts.
constexpr char kMagic[8] = {'M', 'D', 'B', 'H', 'E', 'A', 'P', '1'};

}  // namespace

HeapFileWriter::HeapFileWriter(const std::string& path,
                               std::vector<HeapColumn> cols)
    : path_(path),
      cols_(std::move(cols)),
      row_payload_(payload_bytes(cols_)),
      out_(std::make_unique<BufferedWriter>(path)),
      page_(kPageSize, 0) {
  if (cols_.empty()) throw InternalError("heap file needs columns");
  std::size_t tuple_bytes = kTupleHeaderSize + row_payload_;
  if (kPageHeaderSize + kLinePointerSize + tuple_bytes > kPageSize)
    throw InternalError("heap tuple larger than a page");
  // Reserve the header page; it is rewritten by close().
  std::vector<unsigned char> header(kPageSize, 0);
  out_->write(header.data(), header.size());
  lp_cursor_ = kPageHeaderSize;
  data_cursor_ = kPageSize;
}

TupleId HeapFileWriter::append(const double* values) {
  std::size_t tuple_bytes = kTupleHeaderSize + row_payload_;
  if (lp_cursor_ + kLinePointerSize + tuple_bytes > data_cursor_)
    flush_page();

  data_cursor_ -= tuple_bytes;
  // Line pointer.
  uint32_t off = static_cast<uint32_t>(data_cursor_);
  std::memcpy(page_.data() + lp_cursor_, &off, 4);
  lp_cursor_ += kLinePointerSize;
  // Tuple header: length word plus MVCC-style visibility fields (xmin,
  // xmax, infomask), which the scan checks per tuple like PostgreSQL does.
  uint32_t len = static_cast<uint32_t>(tuple_bytes);
  std::memcpy(page_.data() + data_cursor_, &len, 4);
  uint32_t xmin = 2, xmax = 0;
  uint16_t infomask = 0x0001;  // "committed"
  std::memcpy(page_.data() + data_cursor_ + 4, &xmin, 4);
  std::memcpy(page_.data() + data_cursor_ + 8, &xmax, 4);
  std::memcpy(page_.data() + data_cursor_ + 12, &infomask, 2);
  // Row values at declared widths.
  unsigned char* p = page_.data() + data_cursor_ + kTupleHeaderSize;
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    encode_double(cols_[c].type, values[c], p);
    p += size_of(cols_[c].type);
  }
  TupleId tid{next_page_, static_cast<uint16_t>(page_tuples_)};
  page_tuples_++;
  tuples_++;
  return tid;
}

void HeapFileWriter::flush_page() {
  std::memcpy(page_.data(), &page_tuples_, 4);
  out_->write(page_.data(), kPageSize);
  std::fill(page_.begin(), page_.end(), 0);
  page_tuples_ = 0;
  lp_cursor_ = kPageHeaderSize;
  data_cursor_ = kPageSize;
  next_page_++;
}

void HeapFileWriter::close() {
  if (!out_) return;
  if (page_tuples_ > 0) flush_page();
  out_->close();
  out_.reset();

  // Rewrite the header page in place.
  std::vector<unsigned char> header(kPageSize, 0);
  unsigned char* p = header.data();
  std::memcpy(p, kMagic, 8);
  p += 8;
  uint32_t ncols = static_cast<uint32_t>(cols_.size());
  std::memcpy(p, &ncols, 4);
  p += 4;
  std::memcpy(p, &tuples_, 8);
  p += 8;
  uint32_t pages = next_page_;
  std::memcpy(p, &pages, 4);
  p += 4;
  for (const auto& c : cols_) {
    uint8_t t = static_cast<uint8_t>(c.type);
    std::memcpy(p, &t, 1);
    p += 1;
    uint16_t len = static_cast<uint16_t>(c.name.size());
    std::memcpy(p, &len, 2);
    p += 2;
    std::memcpy(p, c.name.data(), c.name.size());
    p += c.name.size();
    if (static_cast<std::size_t>(p - header.data()) > kPageSize - 64)
      throw InternalError("heap header overflow: too many/long columns");
  }
  int fd = ::open(path_.c_str(), O_WRONLY);
  if (fd < 0) throw IoError("cannot reopen heap file header: " + path_);
  ssize_t w = ::pwrite(fd, header.data(), kPageSize, 0);
  ::close(fd);
  if (w != static_cast<ssize_t>(kPageSize))
    throw IoError("heap header write failed: " + path_);
}

HeapFileReader::HeapFileReader(const std::string& path) : file_(path) {
  std::vector<unsigned char> header(kPageSize);
  file_.pread_exact(header.data(), kPageSize, 0);
  if (std::memcmp(header.data(), kMagic, 8) != 0)
    throw IoError("'" + path + "' is not a minidb heap file");
  const unsigned char* p = header.data() + 8;
  uint32_t ncols;
  std::memcpy(&ncols, p, 4);
  p += 4;
  std::memcpy(&tuple_count_, p, 8);
  p += 8;
  std::memcpy(&page_count_, p, 4);
  p += 4;
  for (uint32_t c = 0; c < ncols; ++c) {
    uint8_t t;
    std::memcpy(&t, p, 1);
    p += 1;
    uint16_t len;
    std::memcpy(&len, p, 2);
    p += 2;
    HeapColumn col;
    col.type = static_cast<DataType>(t);
    col.name.assign(reinterpret_cast<const char*>(p), len);
    p += len;
    cols_.push_back(std::move(col));
  }
  row_payload_ = payload_bytes(cols_);
}

void HeapFileReader::decode_page(
    const unsigned char* page, uint32_t page_no,
    const std::function<void(uint16_t, const double*)>& fn) const {
  (void)page_no;
  uint32_t count;
  std::memcpy(&count, page, 4);
  std::vector<double> row(cols_.size());
  for (uint32_t s = 0; s < count; ++s) {
    uint32_t off;
    std::memcpy(&off, page + kPageHeaderSize + s * kLinePointerSize, 4);
    // Visibility check (PostgreSQL checks xmin/xmax/infomask per tuple).
    uint32_t xmin, xmax;
    uint16_t infomask;
    std::memcpy(&xmin, page + off + 4, 4);
    std::memcpy(&xmax, page + off + 8, 4);
    std::memcpy(&infomask, page + off + 12, 2);
    if (xmin == 0 || xmax != 0 || (infomask & 0x0001) == 0) continue;
    const unsigned char* tup = page + off + kTupleHeaderSize;
    for (std::size_t c = 0; c < cols_.size(); ++c) {
      row[c] = decode_double(cols_[c].type, tup);
      tup += size_of(cols_[c].type);
    }
    fn(static_cast<uint16_t>(s), row.data());
  }
}

void HeapFileReader::scan(const std::function<void(const double*)>& fn,
                          HeapStats* stats) const {
  std::vector<unsigned char> page;
  for (uint32_t pno = 1; pno < page_count_; ++pno) {
    const unsigned char* p = file_.read_at(
        kPageSize, static_cast<uint64_t>(pno) * kPageSize, page);
    if (stats) stats->pages_read++;
    decode_page(p, pno, [&](uint16_t, const double* row) {
      if (stats) stats->tuples_read++;
      fn(row);
    });
  }
}

void HeapFileReader::fetch(const std::vector<TupleId>& sorted_tids,
                           const std::function<void(const double*)>& fn,
                           HeapStats* stats) const {
  std::vector<unsigned char> buf;
  const unsigned char* page = nullptr;
  uint32_t loaded_page = 0;  // page 0 is the header, never fetched
  std::vector<double> row(cols_.size());
  for (const TupleId& tid : sorted_tids) {
    if (tid.page != loaded_page || page == nullptr) {
      page = file_.read_at(
          kPageSize, static_cast<uint64_t>(tid.page) * kPageSize, buf);
      loaded_page = tid.page;
      if (stats) stats->pages_read++;
    }
    uint32_t count;
    std::memcpy(&count, page, 4);
    if (tid.slot >= count) continue;
    uint32_t off;
    std::memcpy(&off, page + kPageHeaderSize + tid.slot * kLinePointerSize,
                4);
    uint32_t xmin, xmax;
    std::memcpy(&xmin, page + off + 4, 4);
    std::memcpy(&xmax, page + off + 8, 4);
    if (xmin == 0 || xmax != 0) continue;
    const unsigned char* tup = page + off + kTupleHeaderSize;
    for (std::size_t c = 0; c < cols_.size(); ++c) {
      row[c] = decode_double(cols_[c].type, tup);
      tup += size_of(cols_[c].type);
    }
    if (stats) stats->tuples_read++;
    fn(row.data());
  }
}

}  // namespace adv::minidb
