// The redesigned public surface: Status/Result vocabulary, the
// Status-returning entry points (core/run.h, LinkedList::make/validate,
// core::verify::*_status), and the llmp.h facade. The contract under
// test: user-input errors come back as a Status — never an abort — while
// internal invariants keep throwing llmp::check_error.
#include <chrono>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "llmp.h"

namespace llmp {
namespace {

// ---- Status / Result basics. -----------------------------------------------

TEST(Status, DefaultIsOkAndNamedConstructorsCarryCodes) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.to_string(), "OK");

  Status s = Status::not_found("no such algorithm");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.to_string(), "NOT_FOUND: no such algorithm");
  EXPECT_EQ(s, Status::not_found("no such algorithm"));
  EXPECT_FALSE(s == Status::not_found("different message"));
}

TEST(Status, EveryCodeRoundTripsThroughToString) {
  for (StatusCode c :
       {StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kDeadlineExceeded, StatusCode::kCancelled,
        StatusCode::kResourceExhausted, StatusCode::kUnavailable,
        StatusCode::kFailedVerification, StatusCode::kInternal}) {
    Status s(c, "m");
    EXPECT_FALSE(s.ok());
    EXPECT_NE(std::string(to_string(c)), "?");
  }
}

TEST(Status, RetryableClassifiesTransientVsDeterministic) {
  // Transient conditions: another attempt could land on a healthy worker,
  // a drained queue, a rebuilt context.
  EXPECT_TRUE(Status::deadline_exceeded("queued too long").retryable());
  EXPECT_TRUE(Status::resource_exhausted("queue full").retryable());
  EXPECT_TRUE(Status::unavailable("worker restarting").retryable());
  EXPECT_TRUE(Status::internal("worker caught exception").retryable());
  // Deterministic rejections of the request itself: retrying replays the
  // same failure (or was explicitly asked for by the caller — cancel).
  EXPECT_FALSE(Status().retryable());
  EXPECT_FALSE(Status::invalid_argument("bad i_parameter").retryable());
  EXPECT_FALSE(Status::not_found("match99").retryable());
  EXPECT_FALSE(Status::cancelled("token set").retryable());
  EXPECT_FALSE(Status::failed_verification("not maximal").retryable());
}

TEST(Result, HoldsValueOrStatus) {
  Result<int> v(7);
  EXPECT_TRUE(v.ok());
  EXPECT_TRUE(v.status().ok());
  EXPECT_EQ(v.value(), 7);
  EXPECT_EQ(*v, 7);

  Result<int> e(Status::cancelled("token fired"));
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kCancelled);
  EXPECT_THROW(e.value(), check_error);  // value() on error is a bug
}

TEST(Result, BuildingFromOkStatusIsAnInvariantViolation) {
  const Status ok_status;
  EXPECT_THROW(Result<int>{ok_status}, check_error);
}

// ---- LinkedList::make / validate. ------------------------------------------

TEST(LinkedListValidate, AcceptsEveryGeneratorShape) {
  for (std::size_t n : {1, 2, 5, 64, 1000}) {
    EXPECT_TRUE(
        list::LinkedList::validate(
            list::generators::random_list(n, 3).next_array())
            .ok())
        << "n=" << n;
  }
}

TEST(LinkedListValidate, RejectsMalformedChains) {
  using list::LinkedList;
  // Successor out of range.
  EXPECT_EQ(LinkedList::validate({5, knil}).code(),
            StatusCode::kInvalidArgument);
  // Two nodes point at node 1 (two predecessors).
  EXPECT_EQ(LinkedList::validate({1, knil, 1}).code(),
            StatusCode::kInvalidArgument);
  // A 3-cycle: no tail at all.
  EXPECT_EQ(LinkedList::validate({1, 2, 0}).code(),
            StatusCode::kInvalidArgument);
  // Disjoint chains: 0 -> 1, 2 -> 3 (two heads, two tails).
  EXPECT_EQ(LinkedList::validate({1, knil, 3, knil}).code(),
            StatusCode::kInvalidArgument);
}

TEST(LinkedListMake, ReturnsListOrStatusWithoutAborting) {
  Result<list::LinkedList> good = list::LinkedList::make({1, 2, knil});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->size(), 3u);
  EXPECT_EQ(good->head(), 0u);

  Result<list::LinkedList> bad = list::LinkedList::make({1, 2, 0});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  // The checked constructor still enforces the invariant the hard way.
  EXPECT_THROW(list::LinkedList({1, 2, 0}), check_error);
}

// ---- core/run.h entry points. ----------------------------------------------

TEST(RunEntryPoints, ValidateOptionsFlagsUserErrors) {
  core::MatchOptions opt;
  EXPECT_TRUE(core::validate_options(opt).ok());

  opt.i_parameter = 0;
  EXPECT_EQ(core::validate_options(opt).code(), StatusCode::kInvalidArgument);

  opt = {};
  opt.algorithm = static_cast<core::Algorithm>(99);
  EXPECT_EQ(core::validate_options(opt).code(), StatusCode::kInvalidArgument);

  opt = {};
  opt.algorithm = core::Algorithm::kMatch3;
  opt.erew = true;  // Match3 has no EREW variant
  EXPECT_EQ(core::validate_options(opt).code(), StatusCode::kInvalidArgument);
}

TEST(RunEntryPoints, ResolveAlgorithmCoversRegistryAndAliases) {
  apps::register_algorithms();
  for (const char* name : {"sequential", "match1", "match2", "match3",
                           "match4", "match4-table", "randomized"}) {
    Result<core::MatchOptions> r = core::resolve_algorithm(name);
    EXPECT_TRUE(r.ok()) << name << ": " << r.status().to_string();
  }
  // Only registry names resolve: the old CLI spellings are gone.
  for (const char* name : {"match99", "seq", "random"})
    EXPECT_EQ(core::resolve_algorithm(name).status().code(),
              StatusCode::kNotFound)
        << name;
  // Registered but not a matching algorithm: the schedules/apps.
  EXPECT_EQ(core::resolve_algorithm("wyllie-ranking").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RunEntryPoints, RunMatchingReportsInsteadOfAborting) {
  const auto lst = list::generators::random_list(500, 11);
  pram::SeqExec exec(64);
  pram::Context ctx(exec);
  core::MatchOptions opt;
  opt.i_parameter = -1;
  Result<core::MatchResult> r = core::run_matching(ctx, lst, opt);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  opt = {};
  r = core::run_matching(ctx, lst, opt);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_TRUE(core::verify::matching_status(lst, r->in_matching).ok());
}

TEST(VerifyStatus, ReportsBadMatchingsAsFailedVerification) {
  const auto lst = list::generators::identity_list(4);  // 0->1->2->3
  // Two adjacent pointers in the matching: invalid.
  std::vector<std::uint8_t> bad = {1, 1, 0, 0};
  EXPECT_EQ(core::verify::matching_status(lst, bad).code(),
            StatusCode::kFailedVerification);
  // Empty matching on a matchable list: valid but not maximal.
  std::vector<std::uint8_t> empty = {0, 0, 0, 0};
  EXPECT_TRUE(core::verify::matching_status(lst, empty).ok());
  EXPECT_EQ(core::verify::maximal_status(lst, empty).code(),
            StatusCode::kFailedVerification);
}

// ---- The llmp.h facade. ----------------------------------------------------

TEST(Facade, RunsEveryPublicAlgorithmThroughOneContext) {
  llmp::Context ctx(256);
  const auto lst = list::generators::random_list(3000, 5);
  for (const char* name :
       {"sequential", "match1", "match2", "match3", "match4", "randomized"}) {
    const auto r = llmp::run(ctx, name, lst);  // Options::verify audits
    ASSERT_TRUE(r.ok()) << name << ": " << r.status().to_string();
    EXPECT_GT(r->edges, 0u) << name;
  }
}

TEST(Facade, OptionOverridesApplyOnTopOfCanonical) {
  llmp::Context ctx;
  const auto lst = list::generators::random_list(4000, 5);
  const auto base = llmp::run(ctx, "match4", lst);
  ASSERT_TRUE(base.ok());
  const auto i2 = llmp::run(ctx, "match4", lst, {.i_parameter = 2});
  ASSERT_TRUE(i2.ok());
  EXPECT_EQ(i2->relabel_rounds, 2);
  const auto erew = llmp::run(ctx, "match4", lst, {.erew = true});
  ASSERT_TRUE(erew.ok());
}

TEST(Facade, PhasesHoldTheLastRunOnly) {
  // The Context's phase sink must not grow with the number of runs.
  llmp::Context ctx;
  const auto lst = list::generators::random_list(64, 5);
  ASSERT_TRUE(llmp::run(ctx, "match4", lst).ok());
  const std::size_t one_run = ctx.phases().size();
  EXPECT_GT(one_run, 0u);
  for (int i = 0; i < 10000; ++i)
    ASSERT_TRUE(llmp::run(ctx, "match4", lst).ok());
  EXPECT_EQ(ctx.phases().size(), one_run);
}

TEST(Facade, ErrorsComeBackAsStatus) {
  llmp::Context ctx;
  const auto lst = list::generators::random_list(100, 5);
  EXPECT_EQ(llmp::run(ctx, "bogus", lst).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(llmp::run(ctx, "match3", lst, {.erew = true}).status().code(),
            StatusCode::kInvalidArgument);
}

// ---- RequestBuilder: the one request spelling shared by transports. --------

TEST(RequestBuilder, BuildsTheInProcessRequest) {
  const auto lst = list::generators::random_list(64, 3);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  const serve::Request req = llmp::RequestBuilder()
                                 .algorithm("match2")
                                 .list(lst)
                                 .deadline(deadline)
                                 .memory_budget_bytes(1 << 20)
                                 .tenant(9)
                                 .build();
  EXPECT_EQ(req.list, &lst);
  EXPECT_EQ(req.algorithm, "match2");
  EXPECT_EQ(req.deadline, deadline);
  EXPECT_EQ(req.memory_budget_bytes, 1u << 20);
  EXPECT_EQ(req.tenant, 9u);
}

TEST(RequestBuilder, TransportGettersMirrorTheSpec) {
  const auto lst = list::generators::random_list(32, 1);
  llmp::RequestBuilder b;
  b.algorithm("sequential").list(lst);
  EXPECT_FALSE(b.is_generated());
  EXPECT_EQ(b.list_ptr(), &lst);
  // generated() replaces the inline list — the two specs are exclusive.
  b.generated(1024, 77);
  EXPECT_TRUE(b.is_generated());
  EXPECT_EQ(b.list_ptr(), nullptr);
  EXPECT_EQ(b.generated_n(), 1024u);
  EXPECT_EQ(b.generated_seed(), 77u);
  // …and list() switches back.
  b.list(lst);
  EXPECT_FALSE(b.is_generated());
  EXPECT_EQ(b.list_ptr(), &lst);
}

TEST(RequestBuilder, SubmittedRequestRunsEndToEnd) {
  const auto lst = list::generators::random_list(400, 6);
  serve::Service svc({.workers = 1, .queue_capacity = 8});
  auto fut = svc.submit(
      llmp::RequestBuilder().algorithm("sequential").list(lst).build());
  const auto r = fut.get();
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_GT(r->edges, 0u);
}

TEST(RequestBuilder, GeneratedSpecIsWireOnlyAndRejectedInProcess) {
  serve::Service svc({.workers = 1, .queue_capacity = 8});
  // generated() has no storage for an in-process Request to point at, so
  // submit refuses it (the net client is the transport that honours it).
  auto fut = svc.submit(
      llmp::RequestBuilder().algorithm("sequential").generated(64, 1).build());
  const auto r = fut.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(RequestBuilder, ExpiredDeadlineAfterMapsToNoDeadline) {
  // deadline_after with a non-positive interval means "no deadline", not
  // "already expired" — the relative form can't express the past.
  llmp::RequestBuilder b;
  b.deadline_after(std::chrono::milliseconds(0));
  EXPECT_EQ(b.deadline_point(), std::chrono::steady_clock::time_point::max());
  b.deadline_after(std::chrono::milliseconds(-5));
  EXPECT_EQ(b.deadline_point(), std::chrono::steady_clock::time_point::max());
}

}  // namespace
}  // namespace llmp
