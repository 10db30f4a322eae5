// Integration tests for the advtool CLI: every subcommand driven end to end
// against a generated dataset.  The binary path arrives via $ADVTOOL (set by
// CMake from the build target).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "codegen/plan.h"
#include "common/io.h"
#include "common/tempdir.h"

namespace adv {
namespace {

std::string advtool() {
  const char* p = std::getenv("ADVTOOL");
  EXPECT_NE(p, nullptr) << "ADVTOOL env var not set";
  return p ? p : "";
}

struct RunResult {
  int exit_code;
  std::string output;
};

RunResult run(const std::string& args) {
  std::string cmd = advtool() + " " + args + " 2>&1";
  FILE* p = ::popen(cmd.c_str(), "r");
  RunResult r{-1, ""};
  if (!p) return r;
  char buf[512];
  while (fgets(buf, sizeof buf, p)) r.output += buf;
  int rc = ::pclose(p);
  r.exit_code = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  return r;
}

class AdvtoolTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tmp_ = new TempDir("advtool");
    RunResult r = run("generate ipars --out " + tmp_->str() +
                      " --nodes 2 --rels 2 --timesteps 10 --grid 20 --pad 0"
                      " --layout L0");
    ASSERT_EQ(r.exit_code, 0) << r.output;
  }
  static void TearDownTestSuite() {
    delete tmp_;
    tmp_ = nullptr;
  }
  static std::string desc() { return tmp_->str() + "/descriptor.adv"; }
  static std::string root() { return tmp_->str(); }

  static TempDir* tmp_;
};

TempDir* AdvtoolTest::tmp_ = nullptr;

TEST_F(AdvtoolTest, ParseAndXmlConversion) {
  RunResult r = run("parse " + desc());
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("DATASET \"IparsData\""), std::string::npos);

  RunResult x = run("parse " + desc() + " --format xml");
  EXPECT_EQ(x.exit_code, 0);
  EXPECT_NE(x.output.find("<descriptor>"), std::string::npos);
  // The XML form is itself loadable (slice the document out of the merged
  // stdout/stderr stream).
  std::size_t begin = x.output.find("<?xml");
  std::size_t end = x.output.rfind("</descriptor>");
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  std::string xml_path = root() + "/descriptor.xml";
  write_text_file(xml_path, x.output.substr(begin, end + 13 - begin));
  RunResult v = run("verify " + xml_path + " IparsData --root " + root());
  EXPECT_EQ(v.exit_code, 0) << v.output;
}

TEST_F(AdvtoolTest, InfoAndVerify) {
  RunResult i = run("info " + desc() + " IparsData --root " + root());
  EXPECT_EQ(i.exit_code, 0);
  EXPECT_NE(i.output.find("nodes:    2"), std::string::npos);
  RunResult v = run("verify " + desc() + " IparsData --root " + root());
  EXPECT_EQ(v.exit_code, 0);
  EXPECT_NE(v.output.find("OK"), std::string::npos);
  // Verification against an empty root fails with exit code 1.
  TempDir empty("advtool-empty");
  RunResult bad = run("verify " + desc() + " IparsData --root " + empty.str());
  EXPECT_EQ(bad.exit_code, 1);
  EXPECT_NE(bad.output.find("PROBLEM"), std::string::npos);
}

TEST_F(AdvtoolTest, QueryLocal) {
  RunResult r = run("query " + desc() + " IparsData --root " + root() +
                    " --csv 2 \"SELECT REL, TIME FROM IparsData WHERE TIME "
                    "= 4\"");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("rows: 80"), std::string::npos);  // 2*2*20 rows
  EXPECT_NE(r.output.find("REL,TIME"), std::string::npos);
}

TEST_F(AdvtoolTest, IndexBuildAndUse) {
  const std::string args =
      desc() + " IparsData --root " + root() + " --dir " + root() + "/zm";
  RunResult b = run("index build " + args);
  EXPECT_EQ(b.exit_code, 0) << b.output;
  EXPECT_TRUE(file_exists(root() + "/zm/IparsData.zm"));

  RunResult i = run("index inspect " + args + " --limit 2");
  EXPECT_EQ(i.exit_code, 0) << i.output;
  EXPECT_NE(i.output.find("0 stale"), std::string::npos) << i.output;
  EXPECT_NE(i.output.find("SOIL=["), std::string::npos) << i.output;

  RunResult ok = run("index check " + args);
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  EXPECT_NE(ok.output.find("OK"), std::string::npos);

  // Rewrite one data file in place (same bytes, later mtime): the sidecar
  // entries for it are stale now.
  codegen::DataServicePlan plan = codegen::DataServicePlan::from_text(
      read_text_file(desc()), "IparsData", root());
  const std::string victim = plan.model().files().front().full_path;
  write_text_file(victim, read_text_file(victim));
  std::filesystem::last_write_time(
      victim, std::filesystem::last_write_time(victim) +
                  std::chrono::seconds(7));
  RunResult stale = run("index check " + args);
  EXPECT_EQ(stale.exit_code, 1) << stale.output;
  EXPECT_NE(stale.output.find("STALE: 1 of"), std::string::npos)
      << stale.output;

  // Queries through the partly stale sidecar answer exactly as without it.
  const std::string query = "query " + desc() + " IparsData --root " +
                            root() + " --csv 0 \"SELECT * FROM IparsData "
                            "WHERE SOIL >= 0.5\"";
  RunResult plain = run(query);
  RunResult q = run(query + " --index " + root() + "/zm");
  EXPECT_EQ(q.exit_code, 0) << q.output;
  auto rows = [](const std::string& out) {
    return out.substr(0, out.find(" across"));
  };
  EXPECT_NE(rows(q.output).find("rows: "), std::string::npos) << q.output;
  EXPECT_EQ(rows(q.output), rows(plain.output));
  // The old `index --out FILE` form is gone.
  EXPECT_EQ(run("index " + desc() + " IparsData --root " + root()).exit_code,
            2);
}

TEST_F(AdvtoolTest, EmitCompiles) {
  std::string out = root() + "/gen.cpp";
  RunResult e = run("emit " + desc() + " IparsData --root " + root() +
                    " --out " + out);
  EXPECT_EQ(e.exit_code, 0) << e.output;
  std::string compile = "g++ -std=c++17 -fsyntax-only " + out + " 2>&1";
  EXPECT_EQ(std::system(compile.c_str()), 0);
}

TEST_F(AdvtoolTest, ErrorsAndUsage) {
  EXPECT_EQ(run("").exit_code, 2);
  EXPECT_EQ(run("frobnicate").exit_code, 2);
  EXPECT_EQ(run("parse /nonexistent.adv").exit_code, 1);
  RunResult r = run("query " + desc() + " IparsData --root " + root() +
                    " \"SELECT NOPE FROM IparsData\"");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("NOPE"), std::string::npos);
}

}  // namespace
}  // namespace adv
