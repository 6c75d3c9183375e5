// Shared scaffolding for the bench harnesses.
//
// Every fig*/table* binary regenerates one artefact of the paper's
// evaluation on the same deterministic world. The world is built at "paper
// scale" by default (~3,200 ASes, 65 IXPs, Table-1-sized probe sets); set
// RP_BENCH_FAST=1 in the environment to shrink everything ~10x for smoke
// runs. Studies are cached per process so a binary that needs both the
// spread and offload results builds the scenario once.
#pragma once

#include <string>
#include <vector>

#include "core/offload_study.hpp"
#include "core/scenario.hpp"
#include "core/spread_study.hpp"
#include "core/viability_study.hpp"
#include "obs/json.hpp"

namespace rp::bench {

/// True when RP_BENCH_FAST is set to a non-empty, non-"0" value.
bool fast_mode();

/// The scenario configuration used by all benches (seeded with 2014).
core::ScenarioConfig scenario_config();

/// The shared world (built on first use).
const core::Scenario& scenario();

/// The §3 study on the shared world (run on first use).
const core::SpreadStudy& spread_study();

/// The §4 study on the shared world (run on first use).
const core::OffloadStudy& offload_study();

/// Prints a standard header naming the paper artefact being regenerated.
void print_header(const std::string& artefact, const std::string& paper_note);

/// Writes BENCH_<name>.json (one flat object) into $RP_BENCH_JSON_DIR (or
/// the cwd) and reports the path on stderr. Returns false on I/O failure.
bool write_bench_json(const std::string& name,
                      const std::vector<obs::json::Entry>& entries);

}  // namespace rp::bench
