// EngineRegistry: the one table of MTTKRP engines.
//
// Every engine in the library registers here under a stable string name, so
// benchmarks, the CLI, and CP-ALS construct engines by name. An entry is
// everything the rest of the library knows about an engine: its factory and,
// for engines that can serve as a memory-budget fallback, a footprint
// predictor. Factories produce *unprepared* engines bound to a
// KernelContext; callers follow with prepare(tensor, rank) — or use the
// make_engine overload that does both.
//
// Builtin names (registration order): the budget fallbacks first, in the
// order the AutoEngine's degradation chain tries them, then the rest:
//   alto, coo, csf, dtree-flat, dtree-3lvl, dtree-bdt, auto
// `csf` has no predictor: its tries are several times coo's footprint and
// its sweep is slower than alto's (EXPERIMENTS.md P2), so it is never the
// fastest engine that fits a budget. It stays as the SPLATT-style baseline.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mttkrp/engine.hpp"

namespace mdcp {

class ProjectionCounter;

using EngineFactory =
    std::function<std::unique_ptr<MttkrpEngine>(KernelContext)>;

/// Predicted resident bytes of an engine prepared for `tensor` at `rank` and
/// run on `threads` threads: its persistent structures plus per-thread
/// scratch, excluding the privatized-schedule envelope (see
/// privatized_envelope_bytes in model/cost_model.hpp). `counter` (may be
/// null) sharpens distinct-row estimates.
using FootprintFn = std::size_t (*)(const CooTensor& tensor, index_t rank,
                                    ProjectionCounter* counter, int threads);

class EngineRegistry {
 public:
  struct Entry {
    std::string name;
    std::string description;
    EngineFactory factory;
    /// Non-null for the engines the AutoEngine may degrade to under a
    /// memory budget; the chain tries them in registration order.
    FootprintFn footprint = nullptr;
  };

  /// The process-wide registry, with all builtin engines pre-registered.
  static EngineRegistry& instance();

  /// Registers a factory. Throws mdcp::error on a duplicate name.
  void register_engine(std::string name, std::string description,
                       EngineFactory factory, FootprintFn footprint = nullptr);

  bool contains(const std::string& name) const;
  /// All registered names, in registration order.
  std::vector<std::string> names() const;
  const std::vector<Entry>& entries() const noexcept { return entries_; }

  /// Creates an unprepared engine. Throws mdcp::error listing the known
  /// names when `name` is not registered.
  std::unique_ptr<MttkrpEngine> create(const std::string& name,
                                       KernelContext ctx = {}) const;

 private:
  EngineRegistry();
  const Entry* find(const std::string& name) const;

  std::vector<Entry> entries_;
};

/// Creates an unprepared engine by name from the global registry.
std::unique_ptr<MttkrpEngine> make_engine(const std::string& name,
                                          KernelContext ctx = {});

/// Creates an engine by name and prepares it for `tensor` (with `rank` as
/// the scratch-sizing hint; required > 0 for "auto").
std::unique_ptr<MttkrpEngine> make_engine(const std::string& name,
                                          const CooTensor& tensor,
                                          index_t rank = 0,
                                          KernelContext ctx = {});

}  // namespace mdcp
