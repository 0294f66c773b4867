#include "mttkrp/registry.hpp"

#include <sstream>
#include <utility>

#include "csf/csf_mttkrp.hpp"
#include "dtree/dtree_engine.hpp"
#include "model/tuner.hpp"
#include "mttkrp/alto.hpp"
#include "mttkrp/coo_mttkrp.hpp"
#include "util/error.hpp"

namespace mdcp {

EngineRegistry::EngineRegistry() {
  // The budget fallbacks come first: the AutoEngine's degradation chain
  // walks the entries that have a footprint predictor in registration order.
  register_engine("alto", "ALTO-style linearized packed-index engine",
                  [](KernelContext ctx) {
                    return std::make_unique<AltoMttkrpEngine>(ctx);
                  },
                  &alto_footprint_bytes);
  register_engine("coo", "element-wise COO with per-mode scatter plans",
                  [](KernelContext ctx) {
                    return std::make_unique<CooMttkrpEngine>(ctx);
                  },
                  &coo_footprint_bytes);
  register_engine("csf", "SPLATT root-mode kernel, one CSF per mode",
                  [](KernelContext ctx) {
                    return std::make_unique<CsfMttkrpEngine>(ctx);
                  });
  register_engine("dtree-flat", "dimension tree, flat (one level)",
                  [](KernelContext ctx) {
                    return std::make_unique<DTreeMttkrpEngine>(
                        &flat_tree, "dtree-flat", ctx);
                  });
  register_engine("dtree-3lvl", "dimension tree, three-level split",
                  [](KernelContext ctx) {
                    return std::make_unique<DTreeMttkrpEngine>(
                        &three_level_tree, "dtree-3lvl", ctx);
                  });
  register_engine("dtree-bdt", "dimension tree, balanced binary (BDT)",
                  [](KernelContext ctx) {
                    return std::make_unique<DTreeMttkrpEngine>(
                        &bdt_tree, "dtree-bdt", ctx);
                  });
  register_engine("auto", "model-driven strategy selection (the tuner)",
                  [](KernelContext ctx) {
                    return std::make_unique<AutoEngine>(ctx);
                  });
}

EngineRegistry& EngineRegistry::instance() {
  static EngineRegistry registry;
  return registry;
}

void EngineRegistry::register_engine(std::string name, std::string description,
                                     EngineFactory factory,
                                     FootprintFn footprint) {
  MDCP_CHECK_MSG(find(name) == nullptr,
                 "engine '" << name << "' already registered");
  MDCP_CHECK(factory != nullptr);
  entries_.push_back({std::move(name), std::move(description),
                      std::move(factory), footprint});
}

const EngineRegistry::Entry* EngineRegistry::find(
    const std::string& name) const {
  for (const auto& e : entries_)
    if (e.name == name) return &e;
  return nullptr;
}

bool EngineRegistry::contains(const std::string& name) const {
  return find(name) != nullptr;
}

std::vector<std::string> EngineRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.name);
  return out;
}

std::unique_ptr<MttkrpEngine> EngineRegistry::create(const std::string& name,
                                                     KernelContext ctx) const {
  const Entry* e = find(name);
  if (e == nullptr) {
    std::ostringstream os;
    os << "unknown engine '" << name << "'; known engines:";
    for (const auto& entry : entries_) os << ' ' << entry.name;
    throw error(os.str());
  }
  return e->factory(ctx);
}

std::unique_ptr<MttkrpEngine> make_engine(const std::string& name,
                                          KernelContext ctx) {
  return EngineRegistry::instance().create(name, ctx);
}

std::unique_ptr<MttkrpEngine> make_engine(const std::string& name,
                                          const CooTensor& tensor,
                                          index_t rank, KernelContext ctx) {
  auto engine = EngineRegistry::instance().create(name, ctx);
  engine->prepare(tensor, rank);
  return engine;
}

}  // namespace mdcp
