#include "expr/table.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/error.h"

namespace adv::expr {

void transpose_rows(const double* rows, std::size_t nrows, std::size_t ncols,
                    double* const* dst) {
  // 64 rows of up to ~60 columns fit in a 32 KiB L1.
  constexpr std::size_t kBlock = 64;
  for (std::size_t r0 = 0; r0 < nrows; r0 += kBlock) {
    const std::size_t n = std::min(kBlock, nrows - r0);
    const double* block = rows + r0 * ncols;
    for (std::size_t c = 0; c < ncols; ++c) {
      const double* p = block + c;
      double* d = dst[c] + r0;
      for (std::size_t r = 0; r < n; ++r, p += ncols) d[r] = *p;
    }
  }
}

Table::Table(std::vector<Column> cols) : cols_(std::move(cols)) {
  data_.resize(cols_.size());
}

Table::Table(std::vector<Column> cols, std::vector<std::vector<double>> data,
             std::size_t rows)
    : cols_(std::move(cols)), data_(std::move(data)), rows_(rows) {
  if (data_.size() != cols_.size())
    throw InternalError("Table: column count mismatch");
  for (const auto& col : data_)
    if (col.size() != rows_) throw InternalError("Table: column length");
}

void Table::append_row(const double* vals) {
  for (std::size_t c = 0; c < cols_.size(); ++c) data_[c].push_back(vals[c]);
  ++rows_;
}

void Table::append_rows(const double* rows, std::size_t nrows) {
  const std::size_t nc = cols_.size();
  std::vector<double*> dst(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    auto& col = data_[c];
    // Geometric growth: reserving exactly rows_+nrows would reallocate (and
    // copy the whole column) once per appended batch — quadratic over a
    // long stream of batches.
    if (col.capacity() < rows_ + nrows)
      col.reserve(std::max(rows_ + nrows, 2 * col.capacity()));
    col.resize(rows_ + nrows);
    dst[c] = col.data() + rows_;
  }
  transpose_rows(rows, nrows, nc, dst.data());
  rows_ += nrows;
}

void Table::append_table(const Table& other) {
  if (other.num_cols() != num_cols())
    throw InternalError("Table::append_table: column count mismatch");
  for (std::size_t c = 0; c < cols_.size(); ++c)
    data_[c].insert(data_[c].end(), other.data_[c].begin(),
                    other.data_[c].end());
  rows_ += other.rows_;
}

namespace {

Table append_rest(Table out, const std::vector<Table>& parts) {
  for (std::size_t i = 1; i < parts.size(); ++i) out.append_table(parts[i]);
  return out;
}

}  // namespace

Table Table::concat(const std::vector<Table>& parts) {
  return parts.empty() ? Table() : append_rest(parts[0], parts);
}

Table Table::concat(std::vector<Table>&& parts) {
  return parts.empty() ? Table() : append_rest(std::move(parts[0]), parts);
}

void Table::sort_rows() {
  std::vector<std::size_t> order(rows_);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    for (std::size_t c = 0; c < cols_.size(); ++c) {
      if (data_[c][a] < data_[c][b]) return true;
      if (data_[c][a] > data_[c][b]) return false;
    }
    return false;
  });
  for (auto& col : data_) {
    std::vector<double> sorted(rows_);
    for (std::size_t i = 0; i < rows_; ++i) sorted[i] = col[order[i]];
    col = std::move(sorted);
  }
}

bool Table::same_rows(const Table& other, double tol) const {
  if (other.num_cols() != num_cols() || other.num_rows() != num_rows())
    return false;
  Table a = *this, b = other;
  a.sort_rows();
  b.sort_rows();
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    for (std::size_t r = 0; r < rows_; ++r) {
      double x = a.data_[c][r], y = b.data_[c][r];
      double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
      if (std::fabs(x - y) > tol * scale) return false;
    }
  }
  return true;
}

std::string Table::to_csv(std::size_t max_rows) const {
  std::ostringstream os;
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    if (c) os << ',';
    os << cols_[c].name;
  }
  os << '\n';
  std::size_t n = std::min(rows_, max_rows);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < cols_.size(); ++c) {
      if (c) os << ',';
      double v = data_[c][r];
      if (is_integral(cols_[c].type)) {
        os << static_cast<int64_t>(v);
      } else {
        os << v;
      }
    }
    os << '\n';
  }
  if (n < rows_) os << "... (" << rows_ - n << " more rows)\n";
  return os.str();
}

uint64_t Table::payload_bytes() const {
  uint64_t per_row = 0;
  for (const auto& c : cols_) per_row += size_of(c.type);
  return per_row * rows_;
}

}  // namespace adv::expr
