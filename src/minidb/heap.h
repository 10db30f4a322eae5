// Slotted-page heap file: the minidb table store.
//
// Page layout:
//   [0..3]   uint32 tuple_count
//   [4..23]  reserved (free-space pointers etc. in a real system)
//   [24..]   line pointers: uint32 offset-within-page per tuple
//   [... ]   tuples growing from the end of the page downward, each
//            kTupleHeaderSize bytes of header followed by the row values
//            encoded at their declared widths.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/types.h"
#include "expr/table.h"
#include "minidb/page.h"

namespace adv::minidb {

struct HeapStats {
  uint64_t pages_read = 0;
  uint64_t tuples_read = 0;
};

// Column description persisted in the heap file header page.
struct HeapColumn {
  std::string name;
  DataType type = DataType::kFloat64;
};

class HeapFileWriter {
 public:
  HeapFileWriter(const std::string& path, std::vector<HeapColumn> cols);

  // Appends one row (values in column order) and returns its TupleId.
  TupleId append(const double* values);

  uint64_t tuple_count() const { return tuples_; }
  uint32_t page_count() const { return next_page_; }

  // Flushes the final page and the header; the file is unreadable before
  // close() completes.
  void close();

 private:
  void flush_page();

  std::string path_;
  std::vector<HeapColumn> cols_;
  std::size_t row_payload_;  // bytes of one encoded row (without header)
  std::unique_ptr<BufferedWriter> out_;
  std::vector<unsigned char> page_;
  uint32_t page_tuples_ = 0;
  std::size_t lp_cursor_ = 0;    // next line-pointer write position
  std::size_t data_cursor_ = 0;  // next tuple end position (grows downward)
  uint32_t next_page_ = 1;       // page 0 is the header
  uint64_t tuples_ = 0;
};

class HeapFileReader {
 public:
  explicit HeapFileReader(const std::string& path);

  const std::vector<HeapColumn>& columns() const { return cols_; }
  uint64_t tuple_count() const { return tuple_count_; }
  uint32_t page_count() const { return page_count_; }
  uint64_t file_bytes() const { return file_.size(); }

  // Full scan: decodes every tuple into `row` (one double per column) and
  // invokes fn(row).  Page-at-a-time I/O.
  void scan(const std::function<void(const double*)>& fn,
            HeapStats* stats = nullptr) const;

  // Fetches specific tuples (bitmap-heap-scan style: callers pass TIDs
  // sorted by page so each page is read once).
  void fetch(const std::vector<TupleId>& sorted_tids,
             const std::function<void(const double*)>& fn,
             HeapStats* stats = nullptr) const;

 private:
  void decode_page(const unsigned char* page, uint32_t page_no,
                   const std::function<void(uint16_t, const double*)>& fn)
      const;

  FileHandle file_;
  std::vector<HeapColumn> cols_;
  std::size_t row_payload_ = 0;
  uint64_t tuple_count_ = 0;
  uint32_t page_count_ = 0;
};

}  // namespace adv::minidb
