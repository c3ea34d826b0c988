#include "svc/service.hpp"

#include <sys/stat.h>

#include <cstdlib>

#include "sample/spec.hpp"
#include "sim/simulator.hpp"
#include "util/faultpoint.hpp"

namespace hcsim::svc {

SweepService::SweepService(unsigned threads, const std::string& journal_dir)
    : pool_(exp::resolve_threads(threads)) {
  if (journal_dir.empty()) return;
  ::mkdir(journal_dir.c_str(), 0755);  // single level; EEXIST is fine
  if (!journal_.open(journal_dir + "/daemon.journal"))
    journal_error_ = journal_.error();
}

bool SweepService::run_jobs(const std::vector<JobRequest>& reqs,
                            const std::function<bool(const JobResponse&)>& on_result,
                            BatchOutcome& outcome, std::string& error) {
  outcome = BatchOutcome{};
  if (reqs.empty()) return true;

  const JobRequest& first = reqs.front();
  for (const JobRequest& req : reqs) {
    if (req.version != kProtocolVersion) {
      error = "unsupported protocol version " + std::to_string(req.version);
      return false;
    }
    if (req.n_records == 0) {
      error = "job with n_records 0";
      return false;
    }
    // The active sample spec is process-global, so one batch = one spec.
    if (req.sampled != first.sampled || req.warmup != first.warmup ||
        req.measure != first.measure || req.period != first.period ||
        req.max_windows != first.max_windows) {
      error = "mixed sample specs in one job batch";
      return false;
    }
  }

  sample::SampleSpec sample_spec;
  if (!resolve_sample_spec(first, sample_spec, error)) return false;

  std::lock_guard<std::mutex> job(job_mu_);
  sample::set_active_sample_spec(sample_spec);

  // job_mu_ makes this batch the pool's only work, so wait_idle() is its
  // latch; `mu` serializes on_result and the outcome counters.
  std::mutex mu;
  bool stream_ok = true;

  for (const JobRequest& req : reqs) {
    pool_.submit([&, &req = req] {
      JobResponse resp;
      resp.job_id = job_id(req);
      const bool journaled = journal_.lookup(resp.job_id, resp.result);
      resp.from_journal = journaled;
      if (!journaled) {
        // The crash the journal exists to survive: abort() between jobs, at
        // a deterministic index, with everything before it already durable.
        if (fault::enabled() && fault::fire("job.abort")) std::abort();
        resp.result = simulate_workload(req.config, req.profile, req.n_records);
        journal_.append(resp.job_id, resp.result);
      }
      std::lock_guard<std::mutex> lock(mu);
      // A dead stream stops sending but NOT simulating: the remainder keeps
      // landing in the journal, so the client's re-submission after
      // reconnect is served as pure journal hits.
      if (stream_ok) {
        if (on_result(resp)) {
          ++outcome.completed;
          if (resp.from_journal) ++outcome.journal_hits;
        } else {
          stream_ok = false;
        }
      }
    });
  }
  pool_.wait_idle();

  outcome.stream_lost = !stream_ok;
  if (!stream_ok) error = "client connection lost mid-batch";
  sample::set_active_sample_spec(sample::SampleSpec{});
  return stream_ok;
}

}  // namespace hcsim::svc
