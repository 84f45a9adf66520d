#include "rms/execution.hpp"

#include <cstdlib>

#include "codegen/ode_system.hpp"
#include "support/assert.hpp"

namespace rms {

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kVm: return "vm";
    case Backend::kNative: return "native";
    case Backend::kAuto: return "auto";
  }
  RMS_UNREACHABLE();
}

bool parse_backend(std::string_view name, Backend& out) {
  if (name == "vm") {
    out = Backend::kVm;
  } else if (name == "native") {
    out = Backend::kNative;
  } else if (name == "auto") {
    out = Backend::kAuto;
  } else {
    return false;
  }
  return true;
}

namespace {

/// kAuto resolution: $RMS_BACKEND wins (a bad value is ignored), else
/// native-with-fallback.
Backend resolve_backend(Backend requested) {
  if (requested != Backend::kAuto) return requested;
  if (const char* env = std::getenv("RMS_BACKEND");
      env != nullptr && *env != '\0') {
    Backend from_env = Backend::kAuto;
    if (parse_backend(env, from_env) && from_env != Backend::kAuto) {
      return from_env;
    }
  }
  return Backend::kNative;
}

}  // namespace

Execution Execution::create(const models::BuiltModel& built,
                            const ExecutionOptions& options) {
  Execution exec;
  exec.built_ = &built;
  exec.dimension_ = built.equation_count();

  const Backend requested = resolve_backend(options.backend);
  if (requested == Backend::kNative) {
    codegen::NativeBackendOptions native_options = options.native;
    native_options.emit_jacobian = options.with_jacobian;
    auto native = codegen::NativeBackend::create(
        built.optimized, options.with_jacobian ? &built.odes.table : nullptr,
        built.equation_count(), built.rates.size(), native_options);
    if (native.is_ok()) {
      exec.backend_ = Backend::kNative;
      exec.native_ = std::move(native).value();
      return exec;
    }
    exec.fallback_reason_ = native.status().to_string();
  }

  exec.backend_ = Backend::kVm;
  if (options.with_jacobian) {
    exec.vm_jacobian_ = std::make_shared<codegen::CompiledJacobian>(
        codegen::compile_jacobian(built.odes.table, built.equation_count(),
                                  built.rates.size()));
  }
  return exec;
}

solver::OdeSystem Execution::make_system(
    const std::vector<double>* rates) const {
  RMS_CHECK(built_ != nullptr);
  return codegen::make_ode_system(built_->program_optimized, native(),
                                  compiled_jacobian(), rates);
}

}  // namespace rms
