// llmp_serve CLI parsing — pins the namespaced flag vocabulary, the
// mutual-exclusion and error paths, and the --help text's coverage of
// every flag (the regression gate for flag renames).
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "net/cli.h"
#include "serve/service.h"
#include "support/status.h"

namespace llmp::net {
namespace {

/// Run the parser over a flag list; fails the test on parse error.
ServeCliOptions parse_ok(std::vector<const char*> args) {
  args.insert(args.begin(), "llmp_serve");
  ServeCliOptions opt;
  bool help = false;
  const Status s = parse_serve_cli(static_cast<int>(args.size()), args.data(),
                                   &opt, &help);
  EXPECT_TRUE(s.ok()) << s.to_string();
  EXPECT_FALSE(help);
  return opt;
}

Status parse_err(std::vector<const char*> args) {
  args.insert(args.begin(), "llmp_serve");
  ServeCliOptions opt;
  bool help = false;
  return parse_serve_cli(static_cast<int>(args.size()), args.data(), &opt,
                         &help);
}

TEST(NetCli, DefaultsMatchTheDocumentedOnes) {
  const ServeCliOptions opt = parse_ok({});
  EXPECT_EQ(opt.requests, 2000u);
  EXPECT_EQ(opt.n, 10000u);
  EXPECT_EQ(opt.lists, 8u);
  EXPECT_EQ(opt.alg, "match4");
  EXPECT_EQ(opt.warmup, kAutoWarmup);
  EXPECT_EQ(opt.service.workers, 4u);
  EXPECT_EQ(opt.service.queue_capacity, 256u);
  EXPECT_EQ(opt.service.audit, serve::AuditPolicy::kOff);
  EXPECT_FALSE(opt.listen);
  EXPECT_TRUE(opt.connect_host.empty());
  EXPECT_EQ(opt.conns, 1u);
  EXPECT_FALSE(opt.csv);
}

TEST(NetCli, NamespacedFlagsParse) {
  const ServeCliOptions opt = parse_ok(
      {"--serve.requests", "500", "--serve.n", "1024", "--serve.lists", "3",
       "--serve.workers", "2", "--serve.queue", "32", "--serve.policy",
       "reject", "--serve.alg", "sequential", "--serve.deadline-ms", "250",
       "--serve.verify", "--serve.warmup", "7", "--serve.audit", "repair",
       "--fault.retries", "3", "--fault.wedge-ms", "40", "--fault.degrade",
       "--csv"});
  EXPECT_EQ(opt.requests, 500u);
  EXPECT_EQ(opt.n, 1024u);
  EXPECT_EQ(opt.lists, 3u);
  EXPECT_EQ(opt.service.workers, 2u);
  EXPECT_EQ(opt.service.queue_capacity, 32u);
  EXPECT_EQ(opt.service.overflow, serve::OverflowPolicy::kReject);
  EXPECT_EQ(opt.alg, "sequential");
  EXPECT_EQ(opt.deadline_ms, 250u);
  EXPECT_TRUE(opt.service.verify);
  EXPECT_EQ(opt.warmup, 7u);
  EXPECT_EQ(opt.service.audit, serve::AuditPolicy::kRepair);
  EXPECT_EQ(opt.service.retry.max_attempts, 3);
  EXPECT_EQ(opt.service.wedge_threshold.count(), 40);
  EXPECT_EQ(opt.service.supervisor_period.count(), 10);  // wedge / 4
  EXPECT_TRUE(opt.service.degrade.enabled);
  EXPECT_TRUE(opt.csv);
}

TEST(NetCli, LegacySpellingsAreUnknownFlags) {
  const Status s = parse_err({"--workers", "2"});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("unknown flag '--workers'"), std::string::npos)
      << s.message();
}

TEST(NetCli, NetFlagsParse) {
  const ServeCliOptions opt = parse_ok(
      {"--net.connect", "127.0.0.1:9000", "--net.conns", "4", "--net.tenant",
       "7", "--net.quota-rps", "12.5", "--net.quota-burst", "3",
       "--net.max-in-flight", "16"});
  EXPECT_FALSE(opt.listen);
  EXPECT_EQ(opt.connect_host, "127.0.0.1");
  EXPECT_EQ(opt.connect_port, 9000);
  EXPECT_EQ(opt.conns, 4u);
  EXPECT_EQ(opt.tenant, 7u);
  EXPECT_DOUBLE_EQ(opt.quota_rps, 12.5);
  EXPECT_DOUBLE_EQ(opt.quota_burst, 3.0);
  EXPECT_EQ(opt.max_in_flight, 16u);
}

TEST(NetCli, ListenAndConnectAreMutuallyExclusive) {
  const Status s =
      parse_err({"--net.listen", "9000", "--net.connect", "h:9001"});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("mutually exclusive"), std::string::npos);
}

TEST(NetCli, ErrorsNameTheOffendingFlag) {
  // Unknown flag (reported under its original spelling).
  Status s = parse_err({"--no-such-flag"});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("--no-such-flag"), std::string::npos);
  // Bare non-flag argument.
  EXPECT_FALSE(parse_err({"loose"}).ok());
  // Missing value.
  s = parse_err({"--serve.requests"});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("missing value"), std::string::npos);
  // Non-numeric value.
  s = parse_err({"--serve.requests", "many"});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("--serve.requests"), std::string::npos);
  // Bad policy.
  EXPECT_FALSE(parse_err({"--serve.policy", "drop"}).ok());
  // Bad audit mode.
  s = parse_err({"--serve.audit", "heal"});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("off|audit|repair"), std::string::npos);
  // Bad host:port shapes.
  EXPECT_FALSE(parse_err({"--net.connect", "no-port"}).ok());
  EXPECT_FALSE(parse_err({"--net.connect", ":9000"}).ok());
  EXPECT_FALSE(parse_err({"--net.connect", "h:"}).ok());
  EXPECT_FALSE(parse_err({"--net.connect", "h:70000"}).ok());
  EXPECT_FALSE(parse_err({"--net.listen", "70000"}).ok());
}

TEST(NetCli, HelpFlagShortCircuits) {
  ServeCliOptions opt;
  bool help = false;
  const char* argv[] = {"llmp_serve", "--help"};
  EXPECT_TRUE(parse_serve_cli(2, argv, &opt, &help).ok());
  EXPECT_TRUE(help);
  const char* argv2[] = {"llmp_serve", "-h", "--no-such-flag"};
  help = false;
  EXPECT_TRUE(parse_serve_cli(3, argv2, &opt, &help).ok());
  EXPECT_TRUE(help);  // --help wins before the bad flag is reached
}

TEST(NetCli, UsageTextCoversEveryFlag) {
  const std::string usage = serve_cli_usage();
  for (const char* flag :
       {"--serve.requests", "--serve.n", "--serve.lists", "--serve.workers",
        "--serve.queue", "--serve.policy", "--serve.alg",
        "--serve.deadline-ms", "--serve.verify", "--serve.warmup",
        "--serve.audit", "--fault.failpoints", "--fault.retries",
        "--fault.wedge-ms",
        "--fault.degrade", "--net.listen", "--net.connect", "--net.conns",
        "--net.tenant", "--net.quota-rps", "--net.quota-burst",
        "--net.max-in-flight", "--csv"})
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
}

TEST(NetCli, LastValueWinsOnRepeatedFlags) {
  const ServeCliOptions opt =
      parse_ok({"--serve.requests", "10", "--serve.requests", "99"});
  EXPECT_EQ(opt.requests, 99u);
}

}  // namespace
}  // namespace llmp::net
