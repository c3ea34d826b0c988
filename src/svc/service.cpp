#include "svc/service.hpp"

#include <sys/stat.h>

#include <cstdlib>
#include <mutex>

#include "exp/runner.hpp"
#include "sample/spec.hpp"
#include "sim/simulator.hpp"
#include "util/faultpoint.hpp"

namespace hcsim::svc {

SweepService::SweepService(unsigned threads, const std::string& journal_dir)
    : threads_(exp::resolve_threads(threads)) {
  if (journal_dir.empty()) return;
  ::mkdir(journal_dir.c_str(), 0755);  // single level; EEXIST is fine
  if (!journal_.open(journal_dir + "/daemon.journal"))
    journal_error_ = journal_.error();
}

bool SweepService::run_jobs(const std::vector<JobRequest>& reqs,
                            const std::function<bool(const JobResponse&)>& on_result,
                            BatchOutcome& outcome, std::string& error) {
  outcome = BatchOutcome{};
  // Validate the whole batch before any result is sent; each job keeps its
  // own resolved sample spec, so one batch may mix specs.
  std::vector<sample::SampleSpec> specs(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const JobRequest& req = reqs[i];
    if (req.version != kProtocolVersion) {
      error = "unsupported protocol version " + std::to_string(req.version);
      return false;
    }
    if (req.n_records == 0) {
      error = "job with n_records 0";
      return false;
    }
    if (!resolve_sample_spec(req, specs[i], error)) return false;
  }

  // Every job is a pure function of its request and the journal locks
  // itself, so concurrent batches need no lock; `mu` serializes on_result
  // and the outcome counters within this batch. Workers fire fault points
  // in the caller's domain, as the inline single-thread run does.
  std::mutex mu;
  bool stream_ok = true;
  const char* const domain = fault::current_domain();
  exp::parallel_for(reqs.size(), threads_, [&](std::size_t i) {
    const fault::ScopedDomain scoped(domain);
    const JobRequest& req = reqs[i];
    JobResponse resp;
    resp.job_id = job_id(req);
    const bool journaled = journal_.lookup(resp.job_id, resp.result);
    resp.from_journal = journaled;
    if (!journaled) {
      // The crash the journal exists to survive: abort() between jobs, at
      // a deterministic index, with everything before it already durable.
      if (fault::enabled() && fault::fire("job.abort")) std::abort();
      resp.result = simulate_workload(req.config, req.profile, req.n_records, specs[i]);
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

  outcome.stream_lost = !stream_ok;
  if (!stream_ok) error = "client connection lost mid-batch";
  return stream_ok;
}

}  // namespace hcsim::svc
