// Tests for the kernel loops: BatchArena buffer reuse, mask-pass lowering
// (IN / BETWEEN / OR / NOT) against the per-row interpreter, the scalar UDF
// fallback inside batches, vector-vs-interp row equivalence on a real
// dataset, and that the default cluster always runs the vector tier.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "advirt.h"
#include "common/tempdir.h"
#include "dataset/layout_writer.h"
#include "kernels/batch.h"

namespace adv {
namespace {

using expr::CompiledBool;
using expr::CompiledScalar;
using kernels::BatchArena;

// Sets an environment variable for one scope and restores the previous
// state on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    const char* old = ::getenv(name);
    had_ = old != nullptr;
    if (had_) old_ = old;
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (had_)
      ::setenv(name_, old_.c_str(), 1);
    else
      ::unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  bool had_ = false;
  std::string old_;
};

// ---------------------------------------------------------------------------
// BatchArena: grow-only buffers, scratch recycling without reallocation.

TEST(BatchArenaTest, ScratchBuffersAreReusedAcrossBatches) {
  BatchArena a;
  double* c1 = a.scratch_col(100);
  double* c2 = a.scratch_col(100);
  EXPECT_NE(c1, c2);
  uint8_t* m1 = a.scratch_mask(100);

  // Next batch: reset hands back the same backing stores in order, even for
  // smaller requests — a steady-state batch allocates nothing.
  a.reset_scratch();
  EXPECT_EQ(a.scratch_col(60), c1);
  EXPECT_EQ(a.scratch_col(100), c2);
  EXPECT_EQ(a.scratch_mask(40), m1);
}

TEST(BatchArenaTest, NamedBuffersNeverShrink) {
  BatchArena a;
  double* col = a.col(3, 256);
  uint8_t* mask = a.mask(256);
  uint32_t* sel = a.sel(256);
  uint64_t* seq = a.seq(256);
  double* out = a.out(1024);
  // Smaller and equal requests keep the same storage.
  EXPECT_EQ(a.col(3, 64), col);
  EXPECT_EQ(a.mask(256), mask);
  EXPECT_EQ(a.sel(1), sel);
  EXPECT_EQ(a.seq(100), seq);
  EXPECT_EQ(a.out(512), out);
  // A different slot is a different column.
  EXPECT_NE(a.col(0, 64), col);
}

// ---------------------------------------------------------------------------
// Mask lowering: every pass must agree bit-exactly with CompiledBool::eval.

CompiledScalar slot_ref(int s) {
  CompiledScalar x;
  x.kind = CompiledScalar::Kind::kSlot;
  x.slot = s;
  return x;
}

CompiledScalar lit(double v) {
  CompiledScalar x;
  x.kind = CompiledScalar::Kind::kConst;
  x.cval = v;
  return x;
}

CompiledBool cmp(sql::CmpOp op, CompiledScalar l, CompiledScalar r) {
  CompiledBool b;
  b.kind = CompiledBool::Kind::kCmp;
  b.cmp = op;
  b.lhs = std::move(l);
  b.rhs = std::move(r);
  return b;
}

// Two columns of awkward values: exact halves so ==/<= boundaries are hit,
// repeated values so IN matches multiple rows.
struct MaskFixture {
  static constexpr std::size_t kN = 1000;
  std::vector<double> c0, c1;
  std::vector<const double*> cols;

  MaskFixture() {
    uint64_t s = 42;
    auto next = [&s]() {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<double>((s >> 33) % 41) / 2.0 - 5.0;
    };
    for (std::size_t i = 0; i < kN; ++i) {
      c0.push_back(next());
      c1.push_back(next());
    }
    cols = {c0.data(), c1.data()};
  }

  void expect_mask_matches_eval(const CompiledBool& p) {
    BatchArena arena;
    arena.reset_scratch();
    uint8_t* mask = arena.mask(kN);
    kernels::eval_mask(p, cols.data(), kN, mask, arena);
    for (std::size_t i = 0; i < kN; ++i) {
      double row[2] = {c0[i], c1[i]};
      ASSERT_EQ(mask[i] != 0, p.eval(row)) << "row " << i;
    }
  }
};

TEST(MaskLoweringTest, InLowersToEqualityMaskOrs) {
  MaskFixture f;
  CompiledBool p;
  p.kind = CompiledBool::Kind::kIn;
  p.slot = 0;
  p.in_set = {-5.0, -0.5, 2.5, 99.0};  // 99 matches nothing
  f.expect_mask_matches_eval(p);
}

TEST(MaskLoweringTest, BetweenLowersToAndOfComparisons) {
  MaskFixture f;
  // The parser rewrites A BETWEEN x AND y to A >= x AND A <= y; the mask
  // path sees exactly this tree.
  CompiledBool p;
  p.kind = CompiledBool::Kind::kAnd;
  p.kids.push_back(cmp(sql::CmpOp::kGe, slot_ref(0), lit(-2.0)));
  p.kids.push_back(cmp(sql::CmpOp::kLe, slot_ref(0), lit(2.0)));
  f.expect_mask_matches_eval(p);
}

TEST(MaskLoweringTest, OrAndNotCombineMasks) {
  MaskFixture f;
  CompiledBool inner;
  inner.kind = CompiledBool::Kind::kOr;
  inner.kids.push_back(cmp(sql::CmpOp::kLt, slot_ref(0), lit(-3.0)));
  inner.kids.push_back(cmp(sql::CmpOp::kGt, slot_ref(1), lit(3.0)));
  inner.kids.push_back(cmp(sql::CmpOp::kEq, slot_ref(0), slot_ref(1)));
  CompiledBool p;
  p.kind = CompiledBool::Kind::kNot;
  p.kids.push_back(std::move(inner));
  f.expect_mask_matches_eval(p);
}

TEST(MaskLoweringTest, ArithmeticComparisonsMatchInterpreter) {
  MaskFixture f;
  CompiledScalar sum;
  sum.kind = CompiledScalar::Kind::kArith;
  sum.op = '+';
  sum.args = {slot_ref(0), slot_ref(1)};
  CompiledScalar prod;
  prod.kind = CompiledScalar::Kind::kArith;
  prod.op = '*';
  prod.args = {slot_ref(1), lit(0.5)};
  f.expect_mask_matches_eval(cmp(sql::CmpOp::kNe, sum, prod));
}

TEST(MaskLoweringTest, UdfCallFallsBackToScalarPerRow) {
  MaskFixture f;
  expr::UdfRegistry::ensure_builtins();
  CompiledScalar call;
  call.kind = CompiledScalar::Kind::kCall;
  call.udf = expr::UdfRegistry::find("MAG2");
  ASSERT_NE(call.udf, nullptr);
  call.args = {slot_ref(0), slot_ref(1)};
  f.expect_mask_matches_eval(cmp(sql::CmpOp::kGt, call, lit(10.0)));
}

TEST(MaskLoweringTest, GatherSelectedCompactsMask) {
  std::vector<uint8_t> mask = {1, 0, 0, 1, 1, 0, 1, 0};
  std::vector<uint32_t> sel(mask.size());
  std::size_t k = kernels::gather_selected(mask.data(), mask.size(),
                                           sel.data());
  ASSERT_EQ(k, 4u);
  EXPECT_EQ(sel[0], 0u);
  EXPECT_EQ(sel[1], 3u);
  EXPECT_EQ(sel[2], 4u);
  EXPECT_EQ(sel[3], 6u);
}

// ---------------------------------------------------------------------------
// Cross-tier equivalence on a real (small, mixed-type) dataset.  The
// reference rows come from the naive executor, which is pinned to the
// interpreter; the fast path runs each tier in turn.

struct TierFixture {
  TempDir tmp{"kerntier"};
  std::string text;
  std::unique_ptr<codegen::DataServicePlan> plan;

  TierFixture() {
    // 60 * 80 = 4800 rows: crosses the 4096-row kernel batch boundary, with
    // narrow integer and float32 fields so widening runs too.
    text = R"(
[S]
T = int
K = short int
V = float
W = double
[DS]
DatasetDescription = S
DIR[0] = n0/d
DATASET "DS" {
  DATASPACE { LOOP T 1:60:1 { LOOP G 1:80:1 { K V W } } }
  DATA { "DIR[0]/f" DIRID = 0:0:1 }
}
)";
    meta::Descriptor d = meta::parse_descriptor(text);
    plan = std::make_unique<codegen::DataServicePlan>(d, "DS", tmp.str());
    const afc::DatasetModel& model = plan->model();
    dataset::ValueFn fn = [](const std::string& attr, const meta::VarEnv& v) {
      double t = v.get("T"), g = v.get("G");
      if (attr == "K") return static_cast<double>(static_cast<int>(t + g) % 7);
      if (attr == "V") return static_cast<double>(static_cast<float>(
          (t * 37 + g * 11) / 97.0 - 10.0));
      return t * 1000 + g;
    };
    std::filesystem::create_directories(tmp.str() + "/n0/d");
    dataset::write_file_from_layout(*model.leaves()[0].decl, model.schema(),
                                    model.files()[0].env,
                                    model.files()[0].full_path, fn);
  }

  storm::QueryResult run(const std::string& sql, KernelMode mode) const {
    VirtualTable::Options vopts;
    vopts.cluster.kernel_mode = mode;
    VirtualTable vt = VirtualTable::open(text, "DS", tmp.str(), vopts);
    return vt.query_detailed(sql);
  }
};

const char* const kTierQueries[] = {
    "SELECT * FROM DS",
    "SELECT T, W FROM DS WHERE V BETWEEN -4 AND 4 AND K IN (1, 3, 6)",
    "SELECT W FROM DS WHERE NOT (T < 30 OR V > 0)",
    "SELECT K, V FROM DS WHERE MAG2(V, K) > 9 AND T <= 50",
};

TEST(KernelTierTest, VectorMatchesInterpReference) {
  TierFixture f;
  for (const char* sql : kTierQueries) {
    expr::Table want = f.plan->execute(f.plan->bind(sql));
    storm::QueryResult r = f.run(sql, KernelMode::kVector);
    EXPECT_TRUE(r.merged().same_rows(want)) << sql;
    EXPECT_GT(r.total_afcs_vector(), 0u) << sql;
    EXPECT_EQ(r.total_afcs_interp(), 0u) << sql;
  }
}

TEST(KernelTierTest, InterpModeRunsTheInterpreter) {
  TierFixture f;
  const char* sql = kTierQueries[1];
  expr::Table want = f.plan->execute(f.plan->bind(sql));
  storm::QueryResult r = f.run(sql, KernelMode::kInterp);
  EXPECT_TRUE(r.merged().same_rows(want));
  EXPECT_GT(r.total_afcs_interp(), 0u);
  EXPECT_EQ(r.total_afcs_vector(), 0u);
}

// The tier is a ClusterOptions field and nothing else: the environment
// variable older builds consulted (set here to "interp") changes nothing.
TEST(KernelTierTest, DefaultOptionsRunVectorWhateverTheEnvironment) {
  TierFixture f;
  ScopedEnv env("ADV_" "KERNEL_MODE", "interp");
  VirtualTable vt = VirtualTable::open(f.text, "DS", f.tmp.str());
  storm::QueryResult r = vt.query_detailed(kTierQueries[1]);
  EXPECT_TRUE(r.merged().same_rows(f.plan->execute(f.plan->bind(
      kTierQueries[1]))));
  EXPECT_GT(r.total_afcs_vector(), 0u);
  EXPECT_EQ(r.total_afcs_interp(), 0u);
}

}  // namespace
}  // namespace adv
