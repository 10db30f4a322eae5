// Differential query fuzz: random layouts + random SQL, fast path vs
// naive reference, byte-identical rows (no faults — clean-path equivalence).
//
// Reproducibility: every failure line embeds `adv_fuzz --seed N`, and the
// corpus is env-steerable when running this binary directly:
//   ADV_FUZZ_SEED=N   pin the corpus to exactly one seed
//   ADV_FUZZ_ITERS=K  number of seeds (default 22; 5 queries x 2 rounds
//                     each = 10 comparisons per seed)
//   ADV_DQ_QUERIES=M  queries per seed
// (Env overrides change the test-case list, so use them on the test binary
// itself, not through a ctest name filter — see docs/TESTING.md.)
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "common/env.h"
#include "dq/dq_run.h"

namespace adv::dq {
namespace {

uint64_t seed_base() {
  return static_cast<uint64_t>(env_int("ADV_FUZZ_SEED", 1));
}
uint64_t seed_count() {
  if (env_int("ADV_FUZZ_SEED", -1) >= 0) return 1;  // pinned: replay one
  return static_cast<uint64_t>(env_int("ADV_FUZZ_ITERS", 22));
}

// Every seed runs under both kernel loops: the reference executor is
// pinned to the interpreter inside run_seed, so the interp leg checks the
// extractor's row-at-a-time path against the naive executor while the
// vector leg is a genuine cross-loop differential over the exact same
// corpus.
class DqDiffTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, KernelMode>> {};

TEST_P(DqDiffTest, FastPathMatchesReference) {
  DqOptions opts;
  opts.queries_per_seed =
      static_cast<int>(env_int("ADV_DQ_QUERIES", 5));
  opts.kernel_mode = std::get<1>(GetParam());
  DqReport rep = run_seed(std::get<0>(GetParam()), opts);
  for (const std::string& f : rep.failures) ADD_FAILURE() << f;
  EXPECT_EQ(rep.passed, rep.cases) << rep.summary();
  // Clean path: no query may end in an error of any kind.
  EXPECT_EQ(rep.clean_errors, 0) << rep.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DqDiffTest,
    ::testing::Combine(::testing::Range<uint64_t>(seed_base(),
                                                  seed_base() + seed_count()),
                       ::testing::Values(KernelMode::kInterp,
                                         KernelMode::kVector)),
    [](const ::testing::TestParamInfo<DqDiffTest::ParamType>& info) {
      return std::to_string(std::get<0>(info.param)) + "_" +
             to_string(std::get<1>(info.param));
    });

// A smaller corpus round-trips through the v2 wire protocol as well: the
// served rows must match the same reference.
class DqServedDiffTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DqServedDiffTest, ServedRowsMatchReference) {
  DqOptions opts;
  opts.queries_per_seed = 3;
  opts.with_server = true;
  DqReport rep = run_seed(GetParam(), opts);
  for (const std::string& f : rep.failures) ADD_FAILURE() << f;
  EXPECT_EQ(rep.passed, rep.cases) << rep.summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DqServedDiffTest,
                         ::testing::Range<uint64_t>(
                             seed_base(), seed_base() +
                                              std::min<uint64_t>(
                                                  seed_count(), 4)));

}  // namespace
}  // namespace adv::dq
