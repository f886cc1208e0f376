#include "serve/traffic_gen.h"

#include <chrono>
#include <cmath>
#include <future>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/rng.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/replica_pool.h"

namespace ber {

namespace {

constexpr double kUsPerS = 1e6;

// Exponential inter-arrival draw; 1-u keeps log's argument in (0, 1].
double exp_draw(Rng& rng, double rate) {
  return -std::log(1.0 - rng.uniform()) / rate;
}

std::vector<std::uint64_t> poisson_schedule(double rate, double duration_s,
                                            Rng& rng) {
  std::vector<std::uint64_t> out;
  double t = exp_draw(rng, rate);
  while (t < duration_s) {
    out.push_back(static_cast<std::uint64_t>(t * kUsPerS));
    t += exp_draw(rng, rate);
  }
  return out;
}

// Lewis-Shedler thinning: homogeneous candidates at the peak rate, kept
// with probability rate(t)/peak — exact for any bounded rate function.
std::vector<std::uint64_t> diurnal_schedule(const ArrivalPhase& p, Rng& rng) {
  const double peak = p.rate_rps * (1.0 + p.amplitude);
  std::vector<std::uint64_t> out;
  double t = exp_draw(rng, peak);
  while (t < p.duration_s) {
    const double rate_t =
        p.rate_rps *
        (1.0 + p.amplitude * std::sin(2.0 * M_PI * t / p.period_s));
    if (rng.uniform() < rate_t / peak) {
      out.push_back(static_cast<std::uint64_t>(t * kUsPerS));
    }
    t += exp_draw(rng, peak);
  }
  return out;
}

// Two-state MMPP: OFF emits nothing, ON is Poisson at rate_rps scaled by
// the inverse duty cycle, so the long-run mean matches rate_rps exactly.
std::vector<std::uint64_t> bursty_schedule(const ArrivalPhase& p, Rng& rng) {
  const double duty = p.mean_on_s / (p.mean_on_s + p.mean_off_s);
  const double on_rate = p.rate_rps / duty;
  std::vector<std::uint64_t> out;
  // Start in the stationary state so short phases are not biased toward ON.
  bool on = rng.uniform() < duty;
  double t = 0.0;
  while (t < p.duration_s) {
    const double sojourn = exp_draw(rng, 1.0 / (on ? p.mean_on_s
                                                   : p.mean_off_s));
    const double end = std::min(t + sojourn, p.duration_s);
    if (on) {
      double a = t + exp_draw(rng, on_rate);
      while (a < end) {
        out.push_back(static_cast<std::uint64_t>(a * kUsPerS));
        a += exp_draw(rng, on_rate);
      }
    }
    t = end;
    on = !on;
  }
  return out;
}

}  // namespace

std::vector<std::uint64_t> arrival_schedule(const ArrivalPhase& phase,
                                            std::uint64_t seed) {
  if (phase.rate_rps <= 0.0 || phase.duration_s <= 0.0) {
    throw std::invalid_argument(
        "arrival_schedule: rate_rps and duration_s must be > 0");
  }
  Rng rng(seed);
  if (phase.process == "poisson") {
    return poisson_schedule(phase.rate_rps, phase.duration_s, rng);
  }
  if (phase.process == "diurnal") {
    if (phase.period_s <= 0.0 || phase.amplitude < 0.0 ||
        phase.amplitude >= 1.0) {
      throw std::invalid_argument(
          "arrival_schedule: diurnal needs period_s > 0 and amplitude in "
          "[0, 1)");
    }
    return diurnal_schedule(phase, rng);
  }
  if (phase.process == "bursty") {
    if (phase.mean_on_s <= 0.0 || phase.mean_off_s <= 0.0) {
      throw std::invalid_argument(
          "arrival_schedule: bursty needs mean_on_s and mean_off_s > 0");
    }
    return bursty_schedule(phase, rng);
  }
  throw std::invalid_argument(
      "arrival_schedule: unknown process \"" + phase.process +
      "\" (known: poisson, diurnal, bursty)");
}

TrafficGenerator::TrafficGenerator(ReplicaPool& pool, const Dataset& data,
                                   TrafficConfig cfg)
    : pool_(pool), data_(data), cfg_(std::move(cfg)) {
  if (!cfg_.enabled()) {
    throw std::invalid_argument("TrafficGenerator: no phases configured");
  }
  if (cfg_.window_ms < 1) {
    throw std::invalid_argument("TrafficGenerator: window_ms must be >= 1");
  }
  if (data_.size() < 1) {
    throw std::invalid_argument("TrafficGenerator: empty dataset");
  }
}

TrafficResult TrafficGenerator::run() {
  using Clock = std::chrono::steady_clock;
  // Phase seeds come from one splitmix stream, so adding a phase never
  // changes the earlier phases' schedules.
  Rng seeder(cfg_.seed);
  std::vector<std::vector<std::uint64_t>> schedules;
  schedules.reserve(cfg_.phases.size());
  for (const ArrivalPhase& p : cfg_.phases) {
    schedules.push_back(arrival_schedule(p, seeder.next_u64()));
  }

  obs::Counter& offered_ctr = obs::registry().counter("traffic.offered");
  obs::Counter& shed_ctr = obs::registry().counter("traffic.shed");
  // The serving-wide shed total (the Runner registers it up front; CI's
  // shed gate reads it).
  obs::Counter& requests_shed =
      obs::registry().counter("serve.requests_shed");
  obs::SloScoreboard board(cfg_.slo, pool_.latency_histogram());

  TrafficResult result;
  const auto t0 = Clock::now();
  const auto window = std::chrono::milliseconds(cfg_.window_ms);
  auto window_end = t0 + window;
  std::uint64_t win_offered = 0, win_shed = 0;
  const auto close_window = [&](const std::string& phase) {
    board.close_window(phase, win_offered, win_shed,
                       pool_.queue_depth_images());
    win_offered = 0;
    win_shed = 0;
    window_end += window;
  };

  std::vector<std::future<std::vector<Prediction>>> futures;
  Tensor image;
  std::vector<int> labels;
  long next_image = 0;
  auto phase_base = t0;
  for (std::size_t pi = 0; pi < cfg_.phases.size(); ++pi) {
    const ArrivalPhase& phase = cfg_.phases[pi];
    BER_TRACE_SCOPE_ARGS("traffic", "phase", {"process", phase.process.c_str()},
                         {"arrivals", schedules[pi].size()});
    for (const std::uint64_t off_us : schedules[pi]) {
      const auto deadline = phase_base + std::chrono::microseconds(off_us);
      while (window_end <= deadline) {
        std::this_thread::sleep_until(window_end);
        close_window(phase.process);
      }
      std::this_thread::sleep_until(deadline);

      const long j = next_image++ % data_.size();
      data_.batch(j, j + 1, image, labels);
      Tensor single = image.reshaped(
          {image.shape(1), image.shape(2), image.shape(3)});
      ++result.offered;
      ++win_offered;
      offered_ctr.add(1);
      try {
        // Open loop: submit and move on. A rejection is a shed, full stop —
        // retrying would turn the generator back into a closed loop.
        futures.push_back(pool_.submit(std::move(single)));
      } catch (const QueueFullError&) {
        ++result.shed;
        ++win_shed;
        shed_ctr.add(1);
        requests_shed.add(1);
      }
    }
    phase_base += std::chrono::microseconds(
        static_cast<std::uint64_t>(phase.duration_s * kUsPerS));
  }

  // Harvest: wait out the in-flight tail, still closing windows on time so
  // the timeline covers the drain (queue depth decaying to zero).
  {
    BER_TRACE_SCOPE_ARGS("traffic", "harvest", {"in_flight", futures.size()});
    for (auto& f : futures) {
      while (f.wait_until(window_end) == std::future_status::timeout) {
        close_window("drain");
      }
      result.answered += static_cast<std::uint64_t>(f.get().size());
    }
  }
  close_window("drain");  // final (partial) window: the last completions

  result.duration_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  result.timeline = board.to_json();
  return result;
}

}  // namespace ber
