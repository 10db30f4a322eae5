// Unit tests for the common substrate: typed values, binary I/O, the shared
// lexer, string helpers, the thread pool, and temp directories.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <set>

#include "common/env.h"
#include "common/error.h"
#include "common/io.h"
#include "common/lexer.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/tempdir.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "faultz/faultz.h"

namespace adv {
namespace {

// ---------------------------------------------------------------------------
// DataType / Value

TEST(DataTypeTest, SizesMatchWireFormat) {
  EXPECT_EQ(size_of(DataType::kInt8), 1u);
  EXPECT_EQ(size_of(DataType::kInt16), 2u);
  EXPECT_EQ(size_of(DataType::kInt32), 4u);
  EXPECT_EQ(size_of(DataType::kInt64), 8u);
  EXPECT_EQ(size_of(DataType::kFloat32), 4u);
  EXPECT_EQ(size_of(DataType::kFloat64), 8u);
}

TEST(DataTypeTest, ParseAcceptsCLikeSpellings) {
  EXPECT_EQ(parse_data_type("short int"), DataType::kInt16);
  EXPECT_EQ(parse_data_type("  SHORT   INT "), DataType::kInt16);
  EXPECT_EQ(parse_data_type("int"), DataType::kInt32);
  EXPECT_EQ(parse_data_type("char"), DataType::kInt8);
  EXPECT_EQ(parse_data_type("long"), DataType::kInt64);
  EXPECT_EQ(parse_data_type("float"), DataType::kFloat32);
  EXPECT_EQ(parse_data_type("double"), DataType::kFloat64);
  EXPECT_EQ(parse_data_type("float64"), DataType::kFloat64);
}

TEST(DataTypeTest, ParseRejectsUnknownNames) {
  EXPECT_THROW(parse_data_type("quadruple"), ValidationError);
  EXPECT_THROW(parse_data_type(""), ValidationError);
}

TEST(ValueTest, IntDoublePromotionInComparisons) {
  EXPECT_TRUE(Value(int64_t{3}) == Value(3.0));
  EXPECT_TRUE(Value(int64_t{3}) < Value(3.5));
  EXPECT_TRUE(Value(4.5) > Value(int64_t{4}));
  EXPECT_TRUE(Value(int64_t{-2}) <= Value(int64_t{-2}));
  EXPECT_TRUE(Value(1.0) != Value(int64_t{2}));
}

class ValueRoundTrip : public ::testing::TestWithParam<DataType> {};

TEST_P(ValueRoundTrip, EncodeDecodeIsIdentity) {
  DataType t = GetParam();
  unsigned char buf[8];
  if (is_integral(t)) {
    for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{100},
                      int64_t{-127}}) {
      encode_value(t, Value(v), buf);
      EXPECT_EQ(decode_value(t, buf).as_int(), v) << to_string(t);
    }
  } else {
    for (double v : {0.0, 1.5, -2.25, 1e10, -1e-3}) {
      encode_value(t, Value(v), buf);
      if (t == DataType::kFloat32) {
        EXPECT_FLOAT_EQ(static_cast<float>(decode_value(t, buf).as_double()),
                        static_cast<float>(v));
      } else {
        EXPECT_DOUBLE_EQ(decode_value(t, buf).as_double(), v);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, ValueRoundTrip,
                         ::testing::Values(DataType::kInt8, DataType::kInt16,
                                           DataType::kInt32, DataType::kInt64,
                                           DataType::kFloat32,
                                           DataType::kFloat64));

// ---------------------------------------------------------------------------
// File I/O

TEST(IoTest, WriteThenPreadRoundTrip) {
  TempDir tmp("io");
  std::string path = tmp.file("data.bin");
  {
    BufferedWriter w(path, 16);  // tiny buffer to force flushes
    for (uint32_t i = 0; i < 1000; ++i) w.write_pod(i);
    w.close();
  }
  FileHandle f(path);
  EXPECT_EQ(f.size(), 4000u);
  uint32_t v = 0;
  f.pread_exact(&v, 4, 4 * 123);
  EXPECT_EQ(v, 123u);
  f.pread_exact(&v, 4, 4 * 999);
  EXPECT_EQ(v, 999u);
}

TEST(IoTest, ShortReadThrows) {
  TempDir tmp("io");
  std::string path = tmp.file("small.bin");
  write_text_file(path, "abc");
  FileHandle f(path);
  char buf[16];
  EXPECT_THROW(f.pread_exact(buf, 16, 0), IoError);
  EXPECT_EQ(f.pread_some(buf, 16, 0), 3u);
  EXPECT_EQ(f.pread_some(buf, 16, 100), 0u);
}

TEST(IoTest, MissingFileThrows) {
  EXPECT_THROW(FileHandle("/nonexistent/path/xyz"), IoError);
  EXPECT_THROW(read_text_file("/nonexistent/path/xyz"), IoError);
  EXPECT_THROW(file_size("/nonexistent/path/xyz"), IoError);
  EXPECT_FALSE(file_exists("/nonexistent/path/xyz"));
}

TEST(IoTest, DirectoryBytesSumsRecursively) {
  TempDir tmp("io");
  write_text_file(tmp.file("a"), "12345");
  std::string sub = tmp.subdir("nested");
  write_text_file(sub + "/b", "123");
  EXPECT_EQ(directory_bytes(tmp.path()), 8u);
}

// ---------------------------------------------------------------------------
// FileCache staleness

TEST(FileCacheTest, HitsShareOneHandle) {
  TempDir tmp("fc");
  std::string path = tmp.file("d.bin");
  write_text_file(path, "0123456789");
  FileCache cache(8);
  auto a = cache.open(path);
  auto b = cache.open(path);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(FileCacheTest, SameSizeSameSecondRewriteGetsFreshHandle) {
  TempDir tmp("fc");
  std::string path = tmp.file("d.bin");
  write_text_file(path, "old payload!");
  FileCache cache(8);
  auto stale = cache.open(path);
  FileHandle::FileId before = stale->id();

  // Rewrite in place: same path, same byte count, same wall-clock second.
  // Whole-second mtime cannot tell the versions apart — only the
  // nanosecond stamp (and on a rename-style rewrite, the inode) changes.
  write_text_file(path, "new payload!");
  EXPECT_NE(FileHandle::stat_id(path), before);

  auto fresh = cache.open(path);
  EXPECT_NE(fresh.get(), stale.get());
  char buf[12];
  fresh->pread_exact(buf, sizeof buf, 0);
  EXPECT_EQ(std::string(buf, sizeof buf), "new payload!");
}

TEST(FileCacheTest, RefusedMapIsServedByPread) {
  TempDir tmp("fc");
  std::string path = tmp.file("d.bin");
  write_text_file(path, "0123456789");
  FileCache cache(8);
  std::shared_ptr<const FileHandle> h;
  {
    faultz::ScopedFaultPlan scope(1, "mmap.fail=1");
    h = cache.open(path);
  }
  EXPECT_EQ(h->mapped_data(), nullptr);
  std::vector<unsigned char> scratch;
  const unsigned char* p = h->read_at(4, 3, scratch);
  EXPECT_EQ(p, scratch.data());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(p), 4), "3456");
  EXPECT_THROW(h->read_at(4, 8, scratch), IoError);
  // The unmapped handle stays cached: a later open is a plain hit.
  EXPECT_EQ(cache.open(path).get(), h.get());

  // A mapped handle reads in place and leaves the scratch buffer alone.
  cache.clear();
  auto m = cache.open(path);
  ASSERT_NE(m->mapped_data(), nullptr);
  std::vector<unsigned char> untouched;
  EXPECT_EQ(m->read_at(4, 3, untouched), m->mapped_data() + 3);
  EXPECT_TRUE(untouched.empty());
}

TEST(FileCacheTest, DeletedFileIsEvictedOnNextOpen) {
  TempDir tmp("fc");
  std::string path = tmp.file("gone.bin");
  write_text_file(path, "x");
  FileCache cache(8);
  auto h = cache.open(path);
  EXPECT_TRUE(h->is_open());
  std::filesystem::remove(path);
  // The revalidating stat fails -> the cached entry is dropped and the
  // reopen surfaces the real error instead of serving deleted bytes.
  EXPECT_THROW(cache.open(path), IoError);
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------------
// Lexer

TEST(LexerTest, TokenKindsAndPositions) {
  auto toks = tokenize("LOOP GRID 1:100 { X }");
  ASSERT_EQ(toks.size(), 9u);  // 8 tokens + end
  EXPECT_TRUE(toks[0].is_ident("loop"));
  EXPECT_TRUE(toks[1].is_ident("GRID"));
  EXPECT_EQ(toks[2].kind, TokKind::kInt);
  EXPECT_EQ(toks[2].int_value, 1);
  EXPECT_TRUE(toks[3].is_punct(":"));
  EXPECT_EQ(toks[4].int_value, 100);
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[0].column, 1);
  EXPECT_EQ(toks[1].column, 6);
}

TEST(LexerTest, CommentsAreSkipped) {
  auto toks = tokenize("A // line comment\nB # hash\nC {* block *} D");
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_TRUE(toks[0].is_ident("A"));
  EXPECT_TRUE(toks[1].is_ident("B"));
  EXPECT_TRUE(toks[2].is_ident("C"));
  EXPECT_TRUE(toks[3].is_ident("D"));
  EXPECT_EQ(toks[1].line, 2);
}

TEST(LexerTest, NumbersIntAndFloat) {
  auto toks = tokenize("42 3.25 1e3 0.5e-2 7");
  EXPECT_EQ(toks[0].kind, TokKind::kInt);
  EXPECT_EQ(toks[1].kind, TokKind::kFloat);
  EXPECT_DOUBLE_EQ(toks[1].float_value, 3.25);
  EXPECT_EQ(toks[2].kind, TokKind::kFloat);
  EXPECT_DOUBLE_EQ(toks[2].float_value, 1000.0);
  EXPECT_EQ(toks[3].kind, TokKind::kFloat);
  EXPECT_DOUBLE_EQ(toks[3].float_value, 0.005);
  EXPECT_EQ(toks[4].kind, TokKind::kInt);
}

TEST(LexerTest, MultiCharPunctuation) {
  auto toks = tokenize("a >= 1 AND b <= 2 OR c <> 3");
  EXPECT_TRUE(toks[1].is_punct(">="));
  EXPECT_TRUE(toks[5].is_punct("<="));
  EXPECT_TRUE(toks[9].is_punct("<>"));
}

TEST(LexerTest, StringsBothQuoteStyles) {
  auto toks = tokenize("\"hello\" 'world'");
  EXPECT_EQ(toks[0].kind, TokKind::kString);
  EXPECT_EQ(toks[0].text, "hello");
  EXPECT_EQ(toks[1].text, "world");
}

TEST(LexerTest, ErrorsCarryPosition) {
  try {
    tokenize("abc\n  \"unterminated");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 3);
  }
  EXPECT_THROW(tokenize("{* never closed"), ParseError);
  EXPECT_THROW(tokenize("valid ~ invalid"), ParseError);
}

TEST(TokenCursorTest, ExpectAndAccept) {
  TokenCursor cur(tokenize("SELECT * FROM t"));
  EXPECT_TRUE(cur.accept_ident("select"));
  EXPECT_TRUE(cur.accept_punct("*"));
  cur.expect_ident("FROM");
  EXPECT_EQ(cur.expect_any_ident("table name").text, "t");
  EXPECT_TRUE(cur.at_end());
  EXPECT_THROW(cur.expect_punct(";"), ParseError);
}

// ---------------------------------------------------------------------------
// Strings

TEST(StringUtilTest, Basics) {
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_EQ(to_upper("AbC"), "ABC");
  EXPECT_TRUE(iequals("TiMe", "time"));
  EXPECT_FALSE(iequals("time", "times"));
  EXPECT_EQ(trim("  x \t"), "x");
  EXPECT_EQ(split("a,b,,c", ',').size(), 4u);
  EXPECT_EQ(join({"a", "b"}, "/"), "a/b");
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_TRUE(ends_with("foobar", "bar"));
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(human_bytes(1536), "1.5 KB");
}

// ---------------------------------------------------------------------------
// Hash / RNG

TEST(RngTest, HashIsDeterministicAndSpread) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
  double u = hash_unit(mix64(7));
  EXPECT_GE(u, 0.0);
  EXPECT_LT(u, 1.0);
  // Sequential stream hits distinct values.
  SplitMix64 rng(1);
  std::set<uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(rng.next());
  EXPECT_EQ(seen.size(), 100u);
}

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForChunksHugeRanges) {
  // A million indices must not become a million queued tasks; every index
  // still runs exactly once and the sum is exact.
  ThreadPool pool(4);
  constexpr std::size_t kN = 1'000'000;
  std::atomic<uint64_t> sum{0};
  pool.parallel_for(kN, [&](std::size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), kN * (kN - 1) / 2);
}

TEST(ThreadPoolTest, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, ExceptionsPropagate) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(8,
                        [&](std::size_t i) {
                          if (i == 3) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// TempDir / env

TEST(TempDirTest, CreatesAndRemoves) {
  std::filesystem::path p;
  {
    TempDir tmp("t");
    p = tmp.path();
    EXPECT_TRUE(std::filesystem::exists(p));
    write_text_file(tmp.file("f"), "x");
  }
  EXPECT_FALSE(std::filesystem::exists(p));
}

TEST(TempDirTest, DistinctInstancesDistinctPaths) {
  TempDir a("t"), b("t");
  EXPECT_NE(a.path(), b.path());
}

TEST(EnvTest, IntParsingAndDefaults) {
  ::setenv("ADV_TEST_ENV_X", "123", 1);
  EXPECT_EQ(env_int("ADV_TEST_ENV_X", 5), 123);
  ::setenv("ADV_TEST_ENV_X", "abc", 1);
  EXPECT_EQ(env_int("ADV_TEST_ENV_X", 5), 5);
  ::unsetenv("ADV_TEST_ENV_X");
  EXPECT_EQ(env_int("ADV_TEST_ENV_X", 5), 5);
  EXPECT_EQ(env_str("ADV_TEST_ENV_X", "d"), "d");
}

}  // namespace
}  // namespace adv
