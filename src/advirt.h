// advirt — automatic data virtualization for flat-file scientific datasets.
//
// Umbrella header exposing the public API:
//
//   * meta::parse_descriptor / meta::Descriptor — the meta-data description
//     language (schema + storage + layout components).
//   * codegen::DataServicePlan — compiles a descriptor into index and
//     extraction functions; execute() runs SQL locally.
//   * codegen::emit_cpp — emits the same functions as standalone C++.
//   * storm::StormCluster — the parallel middleware: per-node index/extract/
//     filter/partition/transfer with a virtual node per storage node.
//   * zonemap::ZoneMap — the chunk indexing service: persistent per-chunk
//     min/max over the stored attributes (see docs/INDEXING.md);
//     index::RTreeFilter walks its bounds with an R-tree.
//   * expr::Table — query results; expr::UdfRegistry — user-defined filter
//     functions for WHERE clauses.
//
// Quickstart (the one-class facade):
//
//   auto vt = adv::VirtualTable::open(descriptor_text, "IparsData",
//                                     "/data/root");
//   adv::expr::Table t = vt.query(
//       "SELECT * FROM IparsData WHERE TIME > 1000 AND TIME < 1100");
//
// or, with explicit control:
//
//   auto plan = std::make_shared<adv::codegen::DataServicePlan>(
//       adv::meta::parse_descriptor(descriptor_text), "IparsData", root);
//   adv::storm::StormCluster cluster(plan);
//   auto result = cluster.execute(sql, partition_spec, &chunk_index);
#pragma once

#include "api/virtual_table.h"
#include "codegen/emit.h"
#include "codegen/plan.h"
#include "expr/predicate.h"
#include "expr/table.h"
#include "expr/udf.h"
#include "index/rtree.h"
#include "index/spatial_filter.h"
#include "metadata/model.h"
#include "metadata/xml.h"
#include "sql/ast.h"
#include "storm/cluster.h"
#include "storm/net.h"
#include "zonemap/zonemap.h"
