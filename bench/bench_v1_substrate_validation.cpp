// V1 — substrate validation against closed-form queueing theory.
//
// The paper closes by arguing that its analysis chain is trustworthy
// because MODEST has a formal semantics, and warns that ad-hoc
// simulators "have been found to exhibit contradictory results even in
// simple case studies" [Cavin et al. 2002]. We cannot port MODEST's
// semantics, but we can do the next best thing: check the DES kernel,
// the RNG, and the statistics pipeline against models with exact
// analytic answers.
//
//   1. M/M/1 queue: mean number in system = rho / (1 - rho); mean wait
//      W = 1 / (mu - lambda) (by Little's law).
//   2. M/D/1 queue: mean wait in queue Wq = rho / (2 mu (1 - rho)) —
//      distinguishes service-time variance handling.
//   3. Batch-means CI coverage on a dependent (AR-like) stream.
//   4. The paper-default three-mode delay's analytic mean vs sampled.
#include <cmath>
#include <functional>
#include <iostream>
#include <vector>

#include "des/simulation.hpp"
#include "experiment_common.hpp"
#include "stats/batch_means.hpp"
#include "stats/time_weighted.hpp"
#include "stats/welford.hpp"
#include "net/delay_model.hpp"
#include "trace/table.hpp"
#include "util/cli.hpp"
#include "util/distributions.hpp"

using namespace probemon;

namespace {

struct QueueResult {
  double mean_in_system;
  double mean_wait;  // sojourn time
};

/// Simulate a single-server queue with Poisson arrivals (rate lambda)
/// and iid service times drawn from `service`.
QueueResult simulate_queue(double lambda, const util::Distribution& service,
                           double horizon, std::uint64_t seed) {
  des::Simulation sim(seed);
  auto arrivals_rng = sim.fork_rng("arrivals");
  auto service_rng = sim.fork_rng("service");

  std::vector<double> queue;  // arrival times of waiting customers
  bool busy = false;
  stats::TimeWeighted in_system;
  stats::Welford waits;
  std::size_t in_system_count = 0;
  in_system.set(0.0, 0.0);

  std::function<void()> start_service = [&] {
    if (queue.empty()) {
      busy = false;
      return;
    }
    busy = true;
    const double arrival_t = queue.front();
    queue.erase(queue.begin());
    const double s = service.sample(service_rng);
    sim.schedule_after(s, [&, arrival_t] {
      waits.add(sim.now() - arrival_t);
      --in_system_count;
      in_system.set(sim.now(), static_cast<double>(in_system_count));
      start_service();
    });
  };

  std::function<void()> arrive = [&] {
    ++in_system_count;
    in_system.set(sim.now(), static_cast<double>(in_system_count));
    queue.push_back(sim.now());
    if (!busy) start_service();
    const double dt = -std::log(arrivals_rng.next_double_open0()) / lambda;
    sim.schedule_after(dt, arrive);
  };
  sim.schedule_after(-std::log(arrivals_rng.next_double_open0()) / lambda,
                     arrive);
  sim.run_until(horizon);
  return QueueResult{in_system.mean_until(horizon), waits.mean()};
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const double horizon = cli.get<double>("horizon", 1000000.0);
  const auto seed = cli.get<std::uint64_t>("seed", 7);
  cli.finish("V1: validate the DES/RNG/stats substrate against queueing theory");

  benchutil::print_header(
      "V1", "substrate validation (not a paper artifact)",
      "the DSN'05 authors stress trustworthy simulation semantics; this "
      "binary checks our kernel against closed-form queueing results");

  benchutil::JsonSummary summary_json("bench_v1_substrate_validation");
  summary_json.set("horizon_s", horizon);
  trace::Table table({"check", "analytic", "simulated", "rel err"});

  {
    // M/M/1, lambda = 0.7, mu = 1.0.
    const double lambda = 0.7, mu = 1.0;
    util::Exponential service(mu);
    const auto r = simulate_queue(lambda, service, horizon, seed);
    const double rho = lambda / mu;
    const double l_analytic = rho / (1 - rho);
    const double w_analytic = 1.0 / (mu - lambda);
    table.row()
        .cell("M/M/1 mean in system L")
        .cell(l_analytic, 4)
        .cell(r.mean_in_system, 4)
        .cell(std::fabs(r.mean_in_system - l_analytic) / l_analytic, 4);
    table.row()
        .cell("M/M/1 mean sojourn W")
        .cell(w_analytic, 4)
        .cell(r.mean_wait, 4)
        .cell(std::fabs(r.mean_wait - w_analytic) / w_analytic, 4);
    summary_json.set("mm1_l_rel_err",
                     std::fabs(r.mean_in_system - l_analytic) / l_analytic);
    summary_json.set("mm1_w_rel_err",
                     std::fabs(r.mean_wait - w_analytic) / w_analytic);
  }
  {
    // M/D/1, lambda = 0.7, deterministic service 1.0.
    const double lambda = 0.7, mu = 1.0;
    util::Constant service(1.0);
    const auto r = simulate_queue(lambda, service, horizon, seed + 1);
    const double rho = lambda / mu;
    const double wq = rho / (2 * mu * (1 - rho));
    const double w_analytic = wq + 1.0 / mu;
    table.row()
        .cell("M/D/1 mean sojourn W")
        .cell(w_analytic, 4)
        .cell(r.mean_wait, 4)
        .cell(std::fabs(r.mean_wait - w_analytic) / w_analytic, 4);
    summary_json.set("md1_w_rel_err",
                     std::fabs(r.mean_wait - w_analytic) / w_analytic);
  }
  {
    // Batch-means CI coverage on an autocorrelated stream (AR(1)).
    util::Rng rng(seed + 2);
    int covered = 0;
    const int runs = 200;
    for (int run = 0; run < runs; ++run) {
      stats::BatchMeans bm(200);  // long batches beat the correlation
      double x = 0;
      for (int i = 0; i < 20000; ++i) {
        x = 0.8 * x + rng.uniform(-1.0, 1.0);
        bm.add(x);
      }
      if (bm.interval(0.95).contains(0.0)) ++covered;
    }
    const double coverage = static_cast<double>(covered) / runs;
    table.row()
        .cell("batch-means 95% CI coverage, AR(1) phi=0.8")
        .cell(0.95, 2)
        .cell(coverage, 3)
        .cell(std::fabs(coverage - 0.95) / 0.95, 3);
    summary_json.set("batch_means_ci_coverage", coverage);
  }
  {
    // Three-mode delay mean: average of the three band midpoints.
    auto model = net::ThreeModeDelay::paper_default();
    util::Rng rng(seed + 3);
    stats::Welford w;
    for (int i = 0; i < 500000; ++i) w.add(model.sample(rng));
    const double analytic =
        ((0.00005 + 0.00015) / 2 + (0.00015 + 0.0003) / 2 +
         (0.0003 + 0.0005) / 2) /
        3.0;
    table.row()
        .cell("three-mode delay mean")
        .cell(analytic * 1e3, 4)
        .cell(w.mean() * 1e3, 4)
        .cell(std::fabs(w.mean() - analytic) / analytic, 4);
    summary_json.set("three_mode_delay_rel_err",
                     std::fabs(w.mean() - analytic) / analytic);
  }
  table.print(std::cout);
  std::cout << "\nAll relative errors should be < ~0.02 (the M/M/1 rows "
               "mix slowly at rho = 0.7; shrink with --horizon).\n";
  benchutil::print_footer();
  return 0;
}
