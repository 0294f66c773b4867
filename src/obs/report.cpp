#include "obs/report.hpp"

#include <cstdio>
#include <cstring>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "obs/json.hpp"
#include "obs/trace.hpp"  // MDCP_ENABLE_TRACING
#include "util/isa.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace mdcp::obs {

const BuildInfo& BuildInfo::current() {
  static const BuildInfo info = [] {
    BuildInfo b;
#if defined(__clang__)
    b.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    b.compiler = std::string("gcc ") + __VERSION__;
#else
    b.compiler = "unknown";
#endif
#ifdef MDCP_BUILD_FLAGS
    b.flags = MDCP_BUILD_FLAGS;
#endif
#ifdef MDCP_BUILD_TYPE
    b.build_type = MDCP_BUILD_TYPE;
#endif
#ifdef _OPENMP
    b.openmp = true;
    b.openmp_version = _OPENMP;
#endif
    b.tracing = MDCP_ENABLE_TRACING != 0;
    b.kernel_isa = isa::name(isa::dispatched());
    b.hardware_threads = std::thread::hardware_concurrency();
    b.host = "unknown-host";
#if defined(__unix__) || defined(__APPLE__)
    char host_buf[256] = {0};
    if (::gethostname(host_buf, sizeof(host_buf) - 1) == 0 &&
        host_buf[0] != '\0')
      b.host = host_buf;
#endif
    return b;
  }();
  return info;
}

std::uint64_t tensor_fingerprint(const CooTensor& tensor) {
  // FNV-1a, 64-bit.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (byte * 8)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  mix(tensor.order());
  for (mode_t m = 0; m < tensor.order(); ++m) mix(tensor.dim(m));
  mix(tensor.nnz());
  for (mode_t m = 0; m < tensor.order(); ++m) {
    for (const index_t idx : tensor.mode_indices(m)) mix(idx);
  }
  for (const real_t v : tensor.values()) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(real_t));
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  }
  return h;
}

RunReporter::RunReporter(const std::string& path)
    : path_(path), tmp_path_(path + ".tmp"), os_(tmp_path_) {}

RunReporter::~RunReporter() { close(); }

bool RunReporter::close() {
  if (closed_) return true;
  closed_ = true;
  if (!os_.is_open()) return false;
  os_.flush();
  const bool good = os_.good();
  os_.close();
  if (!good) {
    std::remove(tmp_path_.c_str());  // never promote a bad partial file
    return false;
  }
  return std::rename(tmp_path_.c_str(), path_.c_str()) == 0;
}

void RunReporter::write_line(const std::string& json) {
  if (closed_ || !os_.good()) return;
  os_ << json << '\n';
  os_.flush();
}

void RunReporter::write_header(const CooTensor& tensor,
                               const std::string& command,
                               int kernel_threads) {
  const BuildInfo& b = BuildInfo::current();
  JsonWriter w;
  w.begin_object()
      .kv("type", "header")
      .kv("schema", kReportSchema)
      .kv("report_version", kReportVersion)
      .kv("command", command)
      .kv("host", b.host)
      .kv("compiler", b.compiler)
      .kv("flags", b.flags)
      .kv("build_type", b.build_type)
      .kv("openmp", b.openmp)
      .kv("openmp_version", b.openmp_version)
      .kv("tracing_compiled", b.tracing)
      .kv("kernel_isa", b.kernel_isa)
      .kv("hardware_threads", b.hardware_threads)
      .kv("kernel_threads", kernel_threads)
      .kv("order", static_cast<std::uint64_t>(tensor.order()));
  w.key("shape").begin_array();
  for (mode_t m = 0; m < tensor.order(); ++m)
    w.value(static_cast<std::uint64_t>(tensor.dim(m)));
  w.end_array();
  w.kv("nnz", tensor.nnz());
  char fp[32];
  std::snprintf(fp, sizeof(fp), "0x%016llx",
                static_cast<unsigned long long>(tensor_fingerprint(tensor)));
  w.kv("fingerprint", fp).end_object();
  write_line(w.str());
}

}  // namespace mdcp::obs
