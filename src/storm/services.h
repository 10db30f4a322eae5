// The STORM service suite (paper §2.3).
//
// STORM is "architected as a suite of loosely coupled services"; the
// classes here mirror that decomposition on the virtual cluster:
//   * QueryService              — entry point: parse + bind + validate.
//   * IndexingService           — wraps the dataset's chunk index (minmax /
//                                 R-tree) behind the planner's ChunkFilter.
//   * DataSourceService         — runs the generated index and extraction
//                                 functions on one node.
//   * FilteringService          — user-defined filters; executed inside the
//                                 extraction loop via the UDF registry, and
//                                 surfaced here for registration.
//   * PartitionGenerationService— maps each result row to a destination
//                                 consumer of the client program.
//   * DataMoverService          — moves selected row batches to consumers,
//                                 accounting simulated transfer time.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "codegen/plan.h"
#include "expr/udf.h"
#include "storm/channel.h"

namespace adv::storm {

// A batch of result rows in flight from a node to a consumer.
struct RowBatch {
  int source_node = 0;
  int consumer = 0;
  std::size_t num_cols = 0;
  std::vector<double> data;  // row-major

  std::size_t num_rows() const {
    return num_cols == 0 ? 0 : data.size() / num_cols;
  }
  uint64_t bytes() const { return data.size() * sizeof(double); }
};

// ---------------------------------------------------------------------------

class QueryService {
 public:
  explicit QueryService(std::shared_ptr<codegen::DataServicePlan> plan)
      : plan_(std::move(plan)) {}

  // Parses, binds, and validates a query against the served dataset.
  expr::BoundQuery submit(const std::string& sql) const {
    return plan_->bind(sql);
  }

  const codegen::DataServicePlan& plan() const { return *plan_; }

 private:
  std::shared_ptr<codegen::DataServicePlan> plan_;
};

// ---------------------------------------------------------------------------

class FilteringService {
 public:
  // Registers an application-specific filter function usable in WHERE
  // clauses (the paper's Filter(<Data Element>) operation).
  static void register_filter(const std::string& name, int arity,
                              expr::UdfFn fn) {
    expr::UdfRegistry::register_udf(name, arity, fn);
  }
};

// ---------------------------------------------------------------------------

class IndexingService {
 public:
  IndexingService() = default;
  explicit IndexingService(const afc::ChunkFilter* filter)
      : filter_(filter) {}

  const afc::ChunkFilter* filter() const { return filter_; }

 private:
  const afc::ChunkFilter* filter_ = nullptr;
};

// ---------------------------------------------------------------------------

// How result rows are distributed over the client program's consumers
// (the paper's partition generation service lets the server implement the
// client's data distribution).
struct PartitionSpec {
  enum class Policy : uint8_t {
    kSingle,       // everything to consumer 0
    kRoundRobin,   // per-node round robin
    kHashAttr,     // hash of one attribute
    kRangeAttr,    // linear range split of one attribute
    kBlockCyclic,  // blocks of `block_size` rows dealt round-robin (the
                   // distribution HPC client programs typically use)
  };

  Policy policy = Policy::kSingle;
  int num_consumers = 1;
  int select_index = -1;  // position in the SELECT list (kHash/kRange)
  double range_lo = 0, range_hi = 1;  // kRangeAttr
  uint64_t block_size = 64;           // kBlockCyclic
};

class PartitionGenerationService {
 public:
  PartitionGenerationService(const PartitionSpec& spec)
      : spec_(spec) {}

  // Destination consumer of a row (values in SELECT order).  `row_seq` is
  // the row's scan-position sequence within its node — the prefix-sum
  // numbering assigned by the node loop (storm/node_runner.h), in-process
  // and in node daemons alike — so kRoundRobin/kBlockCyclic deal by
  // scan position and a row's destination is invariant to how many
  // extraction workers the node uses.  Stateless and safe to call from
  // any number of threads.
  int destination(const double* row, uint64_t row_seq) const;

  int num_consumers() const { return spec_.num_consumers; }
  const PartitionSpec& spec() const { return spec_; }

 private:
  PartitionSpec spec_;
};

// ---------------------------------------------------------------------------

// Models the network between server nodes and client consumers.  The
// simulation never sleeps; it accounts the time a transfer would take so
// experiments can report transfer-inclusive times deterministically.
struct TransferModel {
  double bandwidth_bytes_per_sec = 0;  // 0 = not modeled
  double latency_sec = 0;

  double transfer_seconds(uint64_t bytes) const {
    if (bandwidth_bytes_per_sec <= 0) return 0;
    return latency_sec +
           static_cast<double>(bytes) / bandwidth_bytes_per_sec;
  }
};

class DataMoverService {
 public:
  DataMoverService(std::shared_ptr<Channel<RowBatch>> channel,
                   TransferModel model)
      : channel_(std::move(channel)), model_(model) {}

  // Ships a batch to its consumer; returns the simulated transfer seconds.
  // Thread-safe: every extraction worker of every node ships through one
  // mover, serialized only by the channel's internal lock.
  double send(RowBatch batch) {
    double t = model_.transfer_seconds(batch.bytes());
    channel_->push(std::move(batch));
    return t;
  }

 private:
  std::shared_ptr<Channel<RowBatch>> channel_;
  TransferModel model_;
};

}  // namespace adv::storm
