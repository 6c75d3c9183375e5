#include "core/spread_study.hpp"

#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace rp::core {

SpreadStudy SpreadStudy::run(const WorldView& world,
                             const SpreadStudyConfig& config) {
  obs::Span span("core.spread_study.run");
  SpreadStudy study;
  study.config_ = config;
  // Each per-IXP campaign owns its own simulator and a deterministically
  // forked RNG (keyed on the IXP id alone), so the fan-out is pure per
  // index: the report is byte-identical at any RP_THREADS.
  std::vector<const ixp::Ixp*> ixps;
  ixps.reserve(world.measured_ixps.size());
  for (const ixp::IxpId id : world.measured_ixps)
    ixps.push_back(&world.ecosystem->ixp(id));
  study.raw_ = measure::CampaignRunner::run(
      ixps, config.campaign, [&world](const ixp::Ixp& ixp) {
        return world.fork_rng(0x100 + ixp.id());
      });
  util::ThreadPool& pool = util::ThreadPool::global();
  {
    obs::Span filter_span("measure.apply_filters");
    study.analyses_ = pool.parallel_transform(
        study.raw_.size(), [&study, &config](std::size_t k) {
          return measure::apply_filters(study.raw_[k], config.filters);
        });
  }
  obs::Span report_span("measure.spread_report.build");
  study.report_ =
      measure::SpreadReport::build(study.analyses_, config.classifier);
  return study;
}

SpreadStudy SpreadStudy::reanalyze(
    const std::vector<measure::IxpMeasurement>& raw,
    const SpreadStudyConfig& config) {
  SpreadStudy study;
  study.config_ = config;
  study.raw_ = raw;
  study.analyses_ = util::ThreadPool::global().parallel_transform(
      study.raw_.size(), [&study, &config](std::size_t k) {
        return measure::apply_filters(study.raw_[k], config.filters);
      });
  study.report_ =
      measure::SpreadReport::build(study.analyses_, config.classifier);
  return study;
}

}  // namespace rp::core
