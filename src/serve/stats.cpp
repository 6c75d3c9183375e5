// Daemon::stats_response — the daemon's live stats surface, answered inline
// on the I/O thread (it needs no world and must work even when the
// admission queue is saturated).
//
// Row set (flat key/value, like every kOk report; doubles canonically
// formatted):
//   stats.uptime_s / stats.completed / stats.ring_capacity
//   queue.depth / queue.capacity / queue.high_water
//   pool.capacity / pool.resident / pool.worlds
//   pool.world.<i>.{digest,hits,ready,resident_bytes,last_used}
//       (most recently used first — the order WorldPool::entry_stats yields)
//   req.<type>.{count,p50_us,p99_us,max_us}   per request type seen
//   slow.<i>.{request_id,type,total_us,pool_us,built,compute_us,world}
//       top-K by total latency (queue + pool + compute + write); `built`
//       names what the request's dispatch built (world, offload, curve.<g>,
//       spread; comma-joined, or none)
//   ts.samples / ts.interval_ms
//   ts.<series> = comma-joined last `window` values   (window > 0 only)
#include <string>
#include <vector>

#include "io/container.hpp"
#include "obs/metrics.hpp"
#include "serve/daemon.hpp"
#include "serve/executor.hpp"

namespace rp::serve {

namespace {

constexpr std::size_t kSlowLogK = 5;

const char* request_type_name(std::uint8_t type) {
  switch (static_cast<RequestType>(type)) {
    case RequestType::kPing:
      return "ping";
    case RequestType::kWorldInfo:
      return "world-info";
    case RequestType::kOffloadCurve:
      return "offload-curve";
    case RequestType::kViability:
      return "viability";
    case RequestType::kSpread:
      return "spread";
    case RequestType::kWhatIf:
      return "what-if";
    case RequestType::kShutdown:
      return "shutdown";
    case RequestType::kStats:
      return "stats";
    case RequestType::kWorldAtEpoch:
      return "world-at-epoch";
    case RequestType::kEpochSeries:
      return "epoch-series";
  }
  return "other";
}

void emit(Response& response, std::string key, std::string value) {
  response.fields.emplace_back(std::move(key), std::move(value));
}

void emit_u64(Response& response, std::string key, std::uint64_t value) {
  emit(response, std::move(key), std::to_string(value));
}

void emit_f(Response& response, std::string key, double value) {
  // Latency quantiles borrow MetricValue::quantile, whose empty-histogram
  // result is NaN — that must reach JSON consumers as null, never "nan".
  emit(response, std::move(key), format_double_or_null(value));
}

}  // namespace

Response Daemon::stats_response(std::uint64_t window) const {
  Response response;
  emit_f(response, "stats.uptime_s",
         static_cast<double>(obs::monotonic_ns() - start_ns_) / 1e9);
  emit_u64(response, "stats.completed", tracer_.completed());
  emit_u64(response, "stats.ring_capacity", tracer_.ring_capacity());

  emit_u64(response, "queue.depth", queue_.size());
  emit_u64(response, "queue.capacity", queue_.capacity());
  emit_u64(response, "queue.high_water", queue_.high_water());

  const std::vector<WorldPool::EntryStats> entries = pool_.entry_stats();
  emit_u64(response, "pool.capacity", pool_.capacity());
  emit_u64(response, "pool.resident", pool_.resident());
  emit_u64(response, "pool.worlds", entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::string prefix = "pool.world." + std::to_string(i);
    emit(response, prefix + ".digest", io::digest_hex(entries[i].digest));
    emit_u64(response, prefix + ".hits", entries[i].hits);
    emit(response, prefix + ".ready", entries[i].ready ? "1" : "0");
    emit_u64(response, prefix + ".resident_bytes", entries[i].resident_bytes);
    emit_u64(response, prefix + ".last_used", entries[i].last_used);
  }

  for (const obs::TypeLatency& latency : tracer_.type_latencies()) {
    const std::string prefix =
        std::string("req.") + request_type_name(latency.type);
    emit_u64(response, prefix + ".count", latency.count);
    emit_f(response, prefix + ".p50_us", latency.p50_ns / 1e3);
    emit_f(response, prefix + ".p99_us", latency.p99_ns / 1e3);
    emit_f(response, prefix + ".max_us",
           static_cast<double>(latency.max_ns) / 1e3);
  }

  const std::vector<obs::RequestRecord> slow = tracer_.slowest(kSlowLogK);
  for (std::size_t i = 0; i < slow.size(); ++i) {
    const std::string prefix = "slow." + std::to_string(i);
    emit_u64(response, prefix + ".request_id", slow[i].request_id);
    emit(response, prefix + ".type", request_type_name(slow[i].type));
    emit_f(response, prefix + ".total_us",
           static_cast<double>(slow[i].total_ns()) / 1e3);
    emit_f(response, prefix + ".pool_us",
           static_cast<double>(slow[i].pool_ns) / 1e3);
    emit(response, prefix + ".built", built_names(slow[i].built));
    emit_f(response, prefix + ".compute_us",
           static_cast<double>(slow[i].compute_ns) / 1e3);
    emit(response, prefix + ".world", io::digest_hex(slow[i].world_digest));
  }

  emit_u64(response, "ts.samples", recorder_.samples());
  emit_u64(response, "ts.interval_ms", recorder_.interval_ms());
  if (window > 0) {
    for (const std::string& key : recorder_.keys()) {
      const std::vector<obs::SeriesPoint> points =
          recorder_.window(key, static_cast<std::size_t>(window));
      std::string joined;
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (i != 0) joined += ',';
        joined += format_double(points[i].value);
      }
      emit(response, "ts." + key, std::move(joined));
    }
  }
  return response;
}

}  // namespace rp::serve
