// Umbrella header: the full public API of mdcp.
//
// mdcp is a shared-memory library for sparse CANDECOMP/PARAFAC (CP)
// decomposition of higher-order tensors, built around model-driven selection
// of memoized (dimension-tree) MTTKRP strategies. Typical use:
//
//   #include "mdcp.hpp"
//   mdcp::CooTensor x = mdcp::read_tns_file("data.tns");
//   mdcp::CpAlsOptions opt;
//   opt.rank = 16;
//   opt.engine = "auto";   // model-driven strategy choice
//   auto result = mdcp::cp_als(x, opt);
//   // result.model.{weights,factors}, result.fits, result.*_seconds
#pragma once

#include "cpals/cp_mu.hpp"
#include "cpals/cpals.hpp"
#include "cpals/kruskal.hpp"
#include "csf/csf_mttkrp.hpp"
#include "csf/csf_tensor.hpp"
#include "dtree/dtree_engine.hpp"
#include "dtree/dimension_tree.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/eigen.hpp"
#include "la/matrix.hpp"
#include "model/cost_model.hpp"
#include "model/sketch.hpp"
#include "model/strategy.hpp"
#include "model/tuner.hpp"
#include "mttkrp/coo_mttkrp.hpp"
#include "mttkrp/engine.hpp"
#include "mttkrp/registry.hpp"
#include "obs/clock.hpp"
#include "obs/flightrec.hpp"
#include "obs/history.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/roofline.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "tensor/coo_tensor.hpp"
#include "tensor/generator.hpp"
#include "tensor/stats.hpp"
#include "tensor/tensor_io.hpp"
#include "util/error.hpp"
#include "util/fpenv.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"
#include "util/workspace.hpp"
