// VDX factory: turning a parsed Spec into a configured voter (§6).
//
// This is the encapsulation the paper argues for — application developers
// ship a VDX document, the middleware instantiates the voter, and the
// voting implementation stays shielded behind it.
#pragma once

#include "core/algorithms.h"
#include "core/categorical.h"
#include "core/engine.h"
#include "vdx/spec.h"

namespace avoc::vdx {

/// Lowers a numeric Spec to the engine configuration.  Fails on
/// categorical specs or invalid parameters.
Result<core::EngineConfig> ToEngineConfig(const Spec& spec);

/// Builds a ready numeric voting engine for `modules` sensors.
Result<core::VotingEngine> MakeVoter(const Spec& spec, size_t modules);

/// Lowers a categorical Spec (value_type CATEGORICAL).  The optional
/// distance metric relaxes the capability matrix per §6.
Result<core::CategoricalConfig> ToCategoricalConfig(
    const Spec& spec, core::CategoricalDistance distance = nullptr);

/// Builds a categorical voter.
Result<core::CategoricalEngine> MakeCategoricalVoter(
    const Spec& spec, size_t modules,
    core::CategoricalDistance distance = nullptr);

/// Exports a preset algorithm as a VDX Spec — the round-trip the paper's
/// Listing 1 shows for AVOC.
Spec ExportSpec(core::AlgorithmId id, const core::PresetParams& params = {});

}  // namespace avoc::vdx
