// src/svc — framed protocol, job service, and the daemon loop.
//
// The robustness contract under test: semantic errors (unknown or retired
// frame type, undecodable payload) get a kError reply on a connection that
// stays usable; framing errors drop the connection but never the daemon; a
// client departing mid-batch leaves the daemon alive. And the payoff
// property: a sweep's jobs run through the service are byte-identical to
// the same sweep run in-process.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "rv/kernels.hpp"
#include "sample/spec.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"
#include "svc/daemon.hpp"
#include "svc/protocol.hpp"
#include "svc/remote_sweep.hpp"
#include "svc/service.hpp"

namespace hcsim::svc {
namespace {

std::string test_socket_path(const char* tag) {
  return "/tmp/hcsimd_test_" + std::string(tag) + "_" + std::to_string(::getpid()) +
         ".sock";
}

JobRequest small_job(u64 n_records) {
  JobRequest req;
  req.config = exp::SweepSpec().baseline;
  req.profile = rv::rv_workload_profile("crc32");
  req.n_records = n_records;
  return req;
}

/// u32 n + n JobRequests: the kRunJobs payload.
std::vector<u8> run_jobs_payload(const std::vector<JobRequest>& reqs) {
  std::vector<u8> payload;
  wire::put_u32(payload, static_cast<u32>(reqs.size()));
  for (const JobRequest& req : reqs) encode(payload, req);
  return payload;
}

// --- framing ------------------------------------------------------------------

TEST(Protocol, FrameRoundTrip) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::vector<u8> payload = {1, 2, 3, 250, 0, 7};
  ASSERT_TRUE(write_frame(fds[0], kPing, payload));
  Frame f;
  std::string err;
  ASSERT_TRUE(read_frame(fds[1], f, kMaxRequestFrame, &err)) << err;
  EXPECT_EQ(f.type, kPing);
  EXPECT_EQ(f.payload, payload);

  // Empty payload is a valid frame (len == 1, just the type byte).
  ASSERT_TRUE(write_frame(fds[0], kPong, {}));
  ASSERT_TRUE(read_frame(fds[1], f, kMaxRequestFrame, &err)) << err;
  EXPECT_EQ(f.type, kPong);
  EXPECT_TRUE(f.payload.empty());
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Protocol, OversizedAndZeroLengthFramesAreRejected) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // len = 0: below the [1, max] window.
  const u32 zero = 0;
  ASSERT_EQ(::send(fds[0], &zero, sizeof(zero), 0), (ssize_t)sizeof(zero));
  Frame f;
  std::string err;
  EXPECT_FALSE(read_frame(fds[1], f, kMaxRequestFrame, &err));
  EXPECT_FALSE(err.empty());

  // len beyond max_frame: rejected before any allocation.
  const u32 huge = kMaxRequestFrame + 1;
  ASSERT_EQ(::send(fds[0], &huge, sizeof(huge), 0), (ssize_t)sizeof(huge));
  err.clear();
  EXPECT_FALSE(read_frame(fds[1], f, kMaxRequestFrame, &err));
  EXPECT_FALSE(err.empty());
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Protocol, CleanEofIsNotAnError) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[0]);
  Frame f;
  std::string err = "sentinel";
  EXPECT_FALSE(read_frame(fds[1], f, kMaxRequestFrame, &err));
  EXPECT_TRUE(err.empty());  // EOF, not corruption
  ::close(fds[1]);
}

TEST(Protocol, SweepListRoundTrip) {
  const std::vector<std::string> names = {"fig06", "smoke", "rv"};
  std::vector<u8> buf;
  encode_sweep_list(buf, names);
  wire::Reader r(buf.data(), buf.size());
  std::vector<std::string> back;
  ASSERT_TRUE(decode_sweep_list(r, back));
  EXPECT_EQ(back, names);
}

/// Every SimResult field set by name to a distinct value; the histogram has
/// mass in its overflow bin and every counter differs.
SimResult golden_result() {
  SimResult r;
  r.workload = "gcc";
  r.config = "8_8_8+BR+LR+CR";
  r.uops = 1001;
  r.final_tick = 1002;
  r.wide_cycles = 501.25;
  r.ipc = 1.75;
  r.to_wide = 1003;
  r.to_helper = 1004;
  r.br_steered = 1005;
  r.cr_steered = 1006;
  r.split_uops = 1007;
  r.chunk_uops = 1008;
  r.replicated_loads = 1009;
  r.copies = 1010;
  r.copies_w2n = 1011;
  r.copies_n2w = 1012;
  r.copy_prefetches = 1013;
  r.cp_useful = 1014;
  r.cp_wasted = 1015;
  r.copy_wait.add(3);
  r.copy_wait.add(7, 2);
  r.copy_wait.add(1000);  // overflow bin
  r.wp_correct = 1016;
  r.wp_nonfatal = 1017;
  r.wp_fatal = 1018;
  r.cr_violations = 1019;
  r.branches = 1020;
  r.branch_mispredicts = 1021;
  r.nready_w2n = 1022;
  r.nready_n2w = 1023;
  r.dl0_hit_rate = 0.875;
  r.ul1_hit_rate = 0.4375;
  for (std::size_t i = 0; i < kNumCounters; ++i) r.counters[static_cast<Counter>(i)] = 2000 + i;
  return r;
}

/// encode(golden_result()). Pins the wire and journal layout: a field
/// dropped from, added to or moved in SimResult::for_each_field changes
/// these bytes, and journals already on disk would then be misread.
constexpr const char* kGoldenResultHex =
    "030000006763630e000000385f385f382b42522b4c522b4352e9030000000000"
    "00ea030000000000000000000000547f40000000000000fc3feb030000000000"
    "00ec03000000000000ed03000000000000ee03000000000000ef030000000000"
    "00f003000000000000f103000000000000f203000000000000f3030000000000"
    "00f403000000000000f503000000000000f603000000000000f7030000000000"
    "0040000000000000000000000000000000000000000000000000000000010000"
    "0000000000000000000000000000000000000000000000000000000000020000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "00000000000100000000000000f903000000000000f803000000000000f90300"
    "0000000000fa03000000000000fb03000000000000fc03000000000000fd0300"
    "0000000000fe03000000000000ff03000000000000000000000000ec3f000000"
    "000000dc3f1a000000d007000000000000d107000000000000d2070000000000"
    "00d307000000000000d407000000000000d507000000000000d6070000000000"
    "00d707000000000000d807000000000000d907000000000000da070000000000"
    "00db07000000000000dc07000000000000dd07000000000000de070000000000"
    "00df07000000000000e007000000000000e107000000000000e2070000000000"
    "00e307000000000000e407000000000000e507000000000000e6070000000000"
    "00e707000000000000e807000000000000e907000000000000";

std::vector<u8> from_hex(std::string_view hex) {
  std::vector<u8> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(static_cast<u8>(std::stoul(std::string(hex.substr(i, 2)), nullptr, 16)));
  return out;
}

TEST(Protocol, SimResultWireBytesAreGolden) {
  const SimResult value = golden_result();
  const std::vector<u8> golden = from_hex(kGoldenResultHex);
  std::vector<u8> buf;
  encode(buf, value);
  EXPECT_EQ(buf, golden);

  wire::Reader r(golden.data(), golden.size());
  SimResult back;
  ASSERT_TRUE(decode(r, back));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(back == value);

  for (std::size_t n = 0; n < golden.size(); ++n) {
    wire::Reader prefix(golden.data(), n);
    SimResult partial;
    EXPECT_FALSE(decode(prefix, partial)) << "prefix of " << n << " bytes decoded";
  }
}

// --- service ------------------------------------------------------------------

TEST(SweepService, BadVersionAndBadSampleSpecAreErrors) {
  SweepService service(/*threads=*/1);
  SweepService::BatchOutcome outcome;
  const auto accept = [](const JobResponse&) { return true; };
  std::vector<JobRequest> reqs = {small_job(1000)};
  reqs[0].version = 99;
  std::string error;
  EXPECT_FALSE(service.run_jobs(reqs, accept, outcome, error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;

  reqs[0].version = kProtocolVersion;
  reqs[0].sampled = true;
  reqs[0].warmup = 5000;
  reqs[0].measure = 5000;
  reqs[0].period = 100;  // < warmup + measure: inconsistent schedule
  error.clear();
  EXPECT_FALSE(service.run_jobs(reqs, accept, outcome, error));
  EXPECT_FALSE(error.empty());

  // One batch = one sample spec: mixing specs is refused up front.
  reqs = {small_job(1000), small_job(2000)};
  reqs[1].sampled = true;
  error.clear();
  EXPECT_FALSE(service.run_jobs(reqs, accept, outcome, error));
  EXPECT_NE(error.find("mixed"), std::string::npos) << error;
  EXPECT_EQ(outcome.completed, 0u);

  // The fault-tolerant client resolves the spec through the same function
  // and refuses the same schedule before expanding or simulating anything.
  const auto spec = exp::find_sweep("smoke");
  ASSERT_TRUE(spec.has_value());
  FtSweepOptions opts;
  opts.sample.warmup = 5000;
  opts.sample.measure = 5000;
  opts.sample.period = 100;
  exp::SweepResult result;
  FtSweepStats stats;
  error.clear();
  EXPECT_EQ(run_sweep_ft(*spec, opts, result, stats, error), FtStatus::kBadSpec);
  EXPECT_NE(error.find("period"), std::string::npos) << error;
  EXPECT_EQ(stats.jobs, 0u);
}

TEST(SweepService, SampledJournaledSweepMatchesInProcessByteForByte) {
  std::optional<exp::SweepSpec> spec = exp::find_sweep("smoke");
  ASSERT_TRUE(spec.has_value());
  spec->trace_lens = {50000};
  FtSweepOptions opts;
  opts.sample.warmup = 1000;
  opts.sample.measure = 4000;

  sample::set_active_sample_spec(opts.sample);
  const std::string local = exp::to_csv(exp::run_sweep(*spec, exp::RunOptions{}));
  sample::set_active_sample_spec(sample::SampleSpec{});

  // Journal only, no socket: every job runs on the local fallback, which
  // resolves the spec through the wire rules first.
  const std::string dir = test_socket_path("sampled") + ".d";
  opts.journal_dir = dir;
  exp::SweepResult result;
  FtSweepStats stats;
  std::string error;
  ASSERT_EQ(run_sweep_ft(*spec, opts, result, stats, error), FtStatus::kOk) << error;
  EXPECT_EQ(stats.local_jobs, stats.jobs);
  EXPECT_GT(result.wall_seconds, 0.0);
  EXPECT_EQ(exp::to_csv(result), local);
  ::unlink((dir + "/client.journal").c_str());
  ::rmdir(dir.c_str());

  // The wire reads warmup 0 as the default warm-up, so an explicit zero is
  // refused before anything is expanded or simulated.
  opts.sample.warmup = 0;
  EXPECT_EQ(run_sweep_ft(*spec, opts, result, stats, error), FtStatus::kBadSpec);
  EXPECT_NE(error.find("warmup"), std::string::npos) << error;
  EXPECT_EQ(stats.jobs, 0u);
  EXPECT_NE(::access(dir.c_str(), F_OK), 0);
}

TEST(SweepService, MatchesInProcessSweepByteForByte) {
  const auto spec = exp::find_sweep("smoke");
  ASSERT_TRUE(spec.has_value());
  const exp::SweepResult local = exp::run_sweep(*spec, exp::RunOptions{});

  std::vector<JobRequest> reqs;
  for (const exp::PointResult& pr : local.points) {
    JobRequest req;
    req.config = pr.point.variant.machine;
    req.profile = pr.point.profile;
    req.n_records = pr.point.n_records;
    reqs.push_back(req);
  }
  SweepService service(/*threads=*/2);
  std::vector<JobResponse> got;
  SweepService::BatchOutcome outcome;
  std::string error;
  ASSERT_TRUE(service.run_jobs(
      reqs,
      [&got](const JobResponse& r) {
        got.push_back(r);
        return true;
      },
      outcome, error))
      << error;
  EXPECT_EQ(outcome.completed, reqs.size());
  ASSERT_EQ(got.size(), reqs.size());

  // Results stream in completion order: match them to points by job id and
  // compare the encoded results, which cover every SimResult field.
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const u64 id = job_id(reqs[i]);
    std::vector<u8> want, have;
    encode(want, local.points[i].sim);
    for (const JobResponse& r : got)
      if (r.job_id == id) encode(have, r.result);
    EXPECT_EQ(have, want) << "point " << i;
  }
}

// --- daemon -------------------------------------------------------------------

/// Daemon running on a background thread for client round-trip tests.
/// `base` overrides DaemonOptions defaults (timeouts); socket path and
/// thread count are always set by the fixture.
class DaemonFixture {
 public:
  explicit DaemonFixture(const char* tag, DaemonOptions base = {})
      : path_(test_socket_path(tag)) {
    thread_ = std::thread([this, base] {
      DaemonOptions opts = base;
      opts.socket_path = path_;
      opts.threads = 1;
      run_daemon(opts);
    });
    // The socket appears once the daemon is listening.
    for (int i = 0; i < 500 && ::access(path_.c_str(), F_OK) != 0; ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  ~DaemonFixture() {
    if (thread_.joinable()) {
      std::string error;
      Client c = Client::connect(path_);
      if (c.ok()) c.shutdown(error);
      thread_.join();
    }
    ::unlink(path_.c_str());
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::thread thread_;
};

TEST(Daemon, PingListAndSweepOverTheSocket) {
  DaemonFixture daemon("basic");
  Client client = Client::connect(daemon.path());
  ASSERT_TRUE(client.ok()) << client.error();

  std::string error;
  EXPECT_TRUE(client.ping(error)) << error;

  std::vector<std::string> names;
  ASSERT_TRUE(client.list_sweeps(names, error)) << error;
  EXPECT_EQ(names, exp::sweep_names());

  const std::vector<JobRequest> reqs = {small_job(1000), small_job(1500)};
  std::vector<JobResponse> got;
  JobsDone done;
  ASSERT_EQ(client.run_jobs(
                reqs, [&got](const JobResponse& r) { got.push_back(r); }, done,
                error),
            Client::BatchStatus::kDone)
      << error;
  EXPECT_EQ(done.completed, 2u);
  ASSERT_EQ(got.size(), 2u);
  // Each result is the one an in-process run of its job produces.
  for (const JobRequest& req : reqs) {
    std::vector<u8> want, have;
    encode(want, simulate_workload(req.config, req.profile, req.n_records));
    for (const JobResponse& r : got)
      if (r.job_id == job_id(req)) encode(have, r.result);
    EXPECT_EQ(have, want);
  }

  // The connection is reusable for a second batch.
  ASSERT_EQ(client.run_jobs(reqs, nullptr, done, error), Client::BatchStatus::kDone)
      << error;
  EXPECT_EQ(done.completed, 2u);
}

TEST(Daemon, SemanticErrorKeepsConnectionFramingErrorDropsIt) {
  DaemonFixture daemon("robust");
  Client client = Client::connect(daemon.path());
  ASSERT_TRUE(client.ok()) << client.error();

  // Undecodable job batch: kError reply, connection stays usable.
  ASSERT_TRUE(write_frame(client.fd(), kRunJobs, {0xFF, 0xFF}));
  Frame f;
  std::string err;
  ASSERT_TRUE(read_frame(client.fd(), f, kMaxResponseFrame, &err)) << err;
  EXPECT_EQ(f.type, kError);
  std::string error;
  EXPECT_TRUE(client.ping(error)) << error;

  // Unknown frame types are also semantic and survivable — including the
  // retired kSweep (0x01), kCancel (0x04) and kServeTrace (0x06) codes, so
  // an old client gets an answer instead of a dropped connection.
  for (const u8 type : {u8{0x7E}, u8{0x01}, u8{0x04}, u8{0x06}}) {
    ASSERT_TRUE(write_frame(client.fd(), type, {0x00, 0x01}));
    ASSERT_TRUE(read_frame(client.fd(), f, kMaxResponseFrame, &err)) << err;
    EXPECT_EQ(f.type, kError) << "frame type " << int{type};
    EXPECT_TRUE(client.ping(error)) << error;
  }

  // Framing corruption (oversized len): the daemon drops this connection...
  const u32 huge = 0xFFFFFFFF;
  ASSERT_EQ(::send(client.fd(), &huge, sizeof(huge), MSG_NOSIGNAL),
            (ssize_t)sizeof(huge));
  EXPECT_FALSE(read_frame(client.fd(), f, kMaxResponseFrame, &err));

  // ... but not itself: a fresh connection works.
  Client again = Client::connect(daemon.path());
  ASSERT_TRUE(again.ok()) << again.error();
  EXPECT_TRUE(again.ping(error)) << error;
}

TEST(Daemon, ClientDisconnectMidJobLeavesDaemonAlive) {
  DaemonFixture daemon("depart");
  {
    Client client = Client::connect(daemon.path());
    ASSERT_TRUE(client.ok()) << client.error();
    std::vector<JobRequest> reqs;
    for (u64 n = 20000; n < 20008; ++n) reqs.push_back(small_job(n));
    ASSERT_TRUE(write_frame(client.fd(), kRunJobs, run_jobs_payload(reqs)));
    // Depart without reading the result stream; the daemon notices when a
    // result write fails (EPIPE), drops the connection, and must survive.
  }
  Client probe = Client::connect(daemon.path());
  ASSERT_TRUE(probe.ok()) << probe.error();
  std::string error;
  EXPECT_TRUE(probe.ping(error)) << error;
}

TEST(Daemon, IdleConnectionIsDroppedInsteadOfStarvingOthers) {
  DaemonOptions base;
  base.conn_idle_timeout_ms = 100;
  DaemonFixture daemon("idle", base);

  // First client connects and goes silent — never sends a frame, never
  // closes. Connections are served one at a time, so before the bounded
  // idle wait this parked the daemon forever.
  Client idler = Client::connect(daemon.path());
  ASSERT_TRUE(idler.ok()) << idler.error();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Second client must still get service once the idler is dropped.
  Client active = Client::connect(daemon.path());
  ASSERT_TRUE(active.ok()) << active.error();
  std::string error;
  EXPECT_TRUE(active.ping(error)) << error;

  // The idler's connection was closed by the daemon.
  EXPECT_FALSE(idler.ping(error));
}

}  // namespace
}  // namespace hcsim::svc
