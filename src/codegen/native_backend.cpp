#include "codegen/native_backend.hpp"

#include <dlfcn.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "codegen/c_emitter.hpp"
#include "codegen/jacobian.hpp"
#include "support/assert.hpp"
#include "support/strings.hpp"
#include "support/timer.hpp"

namespace rms::codegen {

namespace {

/// Bump when the emitted-source contract changes in a way the source text
/// itself does not capture (symbol names, calling conventions): stale cache
/// entries from older layouts must miss.
constexpr const char* kCacheFormatVersion = "rms-native-v1";

constexpr const char* kRhsSymbol = "rms_ode_rhs";
// emit_c_batch names the batched loop after the scalar function.
constexpr const char* kBatchSymbol = "rms_ode_rhs_batch";
constexpr const char* kJacSymbol = "rms_ode_jac";

std::atomic<std::uint64_t> g_compiler_invocations{0};
/// Tells apart the temporaries of constructions in one process.
std::atomic<std::uint64_t> g_temp_serial{0};

std::uint64_t fnv1a(std::string_view data, std::uint64_t hash) {
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string resolve_compiler(const NativeBackendOptions& options) {
  if (!options.compiler.empty()) return options.compiler;
  if (const char* env = std::getenv("RMS_CC"); env != nullptr && *env != '\0') {
    return env;
  }
  return "cc";
}

std::string resolve_cache_dir(const NativeBackendOptions& options) {
  if (!options.cache_dir.empty()) return options.cache_dir;
  if (const char* env = std::getenv("RMS_CACHE_DIR");
      env != nullptr && *env != '\0') {
    return env;
  }
  if (const char* home = std::getenv("HOME");
      home != nullptr && *home != '\0') {
    return std::string(home) + "/.cache/rms";
  }
  return "/tmp/rms-cache";
}

/// mkdir -p. Returns false when a component exists but is not a directory
/// or cannot be created.
bool make_dirs(const std::string& path) {
  std::string prefix;
  prefix.reserve(path.size());
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i != path.size() && path[i] != '/') {
      prefix += path[i];
      continue;
    }
    if (!prefix.empty() && prefix != "/") {
      if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
    }
    if (i != path.size()) prefix += '/';
  }
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  out.flush();
  return static_cast<bool>(out);
}

/// Removes a path, ignoring "already gone".
void remove_quiet(const std::string& path) {
  if (!path.empty()) ::unlink(path.c_str());
}

}  // namespace

std::uint64_t NativeBackend::compiler_invocations() {
  return g_compiler_invocations.load(std::memory_order_relaxed);
}

NativeBackend::~NativeBackend() {
  if (handle_ != nullptr) ::dlclose(handle_);
}

support::Expected<std::unique_ptr<NativeBackend>> NativeBackend::create(
    const opt::OptimizedSystem& system, const odegen::EquationTable* equations,
    std::size_t species_count, std::size_t rate_count,
    const NativeBackendOptions& options) {
  support::WallTimer total_timer;
  auto backend = std::unique_ptr<NativeBackend>(new NativeBackend());
  backend->dimension_ = system.equations.size();
  backend->rate_count_ = rate_count;

  // ------------------------------------------------- emit the C source
  const bool want_jacobian = options.emit_jacobian && equations != nullptr;
  std::string source = options.emit_batch
                           ? emit_c_batch(system, {kRhsSymbol})
                           : emit_c_optimized(system, {kRhsSymbol});
  if (want_jacobian) {
    SymbolicJacobian symbolic = differentiate(*equations, species_count);
    backend->row_offsets_ = std::move(symbolic.row_offsets);
    backend->col_indices_ = std::move(symbolic.col_indices);
    // Same optimizer configuration as compile_jacobian's default, so the
    // native Jacobian computes the exact graph the VM Jacobian executes.
    const opt::OptimizedSystem jac_system =
        opt::optimize(symbolic.entries, species_count, rate_count);
    source += '\n';
    source += emit_c_jacobian(jac_system, {kJacSymbol});
  }

  // ------------------------------------------------ content-addressed key
  const std::string compiler = resolve_compiler(options);
  const std::string command_template =
      compiler + " " + options.flags + " -shared -fPIC";
  std::uint64_t key = fnv1a(kCacheFormatVersion, 1469598103934665603ull);
  key = fnv1a(source, key);
  key = fnv1a(command_template, key);
  backend->info_.emit_seconds = total_timer.seconds();

  const std::string cache_dir = resolve_cache_dir(options);
  if (!make_dirs(cache_dir)) {
    return support::internal_error("native backend: cannot create cache dir " +
                                   cache_dir);
  }
  const std::string stem =
      support::str_format("%s/rms-%016llx", cache_dir.c_str(),
                          static_cast<unsigned long long>(key));
  const std::string so_path = stem + ".so";

  backend->info_.key = key;
  backend->info_.object_path = so_path;

  // Binds the entry points from an already-dlopen()ed handle; false leaves
  // the backend untouched (the caller evicts / recompiles).
  auto bind = [&](void* handle) {
    auto rhs = reinterpret_cast<NativeRhsFn>(::dlsym(handle, kRhsSymbol));
    NativeBatchFn batch = nullptr;
    NativeRhsFn jac = nullptr;
    if (options.emit_batch) {
      batch = reinterpret_cast<NativeBatchFn>(::dlsym(handle, kBatchSymbol));
      if (batch == nullptr) return false;
    }
    if (want_jacobian) {
      jac = reinterpret_cast<NativeRhsFn>(::dlsym(handle, kJacSymbol));
      if (jac == nullptr) return false;
    }
    if (rhs == nullptr) return false;
    backend->handle_ = handle;
    backend->rhs_ = rhs;
    backend->batch_ = batch;
    backend->jac_ = jac;
    return true;
  };

  // ------------------------------------------------------- cache lookup
  struct stat st{};
  if (options.use_cache && ::stat(so_path.c_str(), &st) == 0) {
    void* handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (handle != nullptr && bind(handle)) {
      backend->info_.cache_hit = true;
      backend->info_.total_seconds = total_timer.seconds();
      return backend;
    }
    // Corrupted entry (truncated write, symbol mismatch from a hash
    // collision, foreign file): evict and fall through to a recompile.
    if (handle != nullptr) ::dlclose(handle);
    remove_quiet(so_path);
  }

  // ------------------------------------------------ compile + publish
  // Private temp names (pid plus a per-process serial) so concurrent
  // processes, and threads of one process, racing on the same key never
  // write through each other; rename() publishes the finished object
  // atomically.
  const std::string tmp_tag = support::str_format(
      ".tmp.%d.%llu", static_cast<int>(::getpid()),
      static_cast<unsigned long long>(
          g_temp_serial.fetch_add(1, std::memory_order_relaxed)));
  const std::string c_path = stem + tmp_tag + ".c";
  const std::string tmp_so_path = stem + tmp_tag + ".so";
  if (!write_text_file(c_path, source)) {
    remove_quiet(c_path);
    return support::internal_error("native backend: cannot write " + c_path);
  }
  const std::string command = command_template + " " + c_path + " -o " +
                              tmp_so_path + " > /dev/null 2>&1";
  support::WallTimer compile_timer;
  g_compiler_invocations.fetch_add(1, std::memory_order_relaxed);
  const int rc = std::system(command.c_str());
  backend->info_.compile_seconds = compile_timer.seconds();
  if (rc != 0) {
    // Leave no orphans on the failure path: the source and any partial
    // object are private temp files, so this cleanup is race-free.
    remove_quiet(c_path);
    remove_quiet(tmp_so_path);
    return support::internal_error(support::str_format(
        "native backend: '%s' failed (exit %d) — compiler missing or "
        "rejected the unit",
        compiler.c_str(), rc));
  }
  remove_quiet(c_path);
  if (::rename(tmp_so_path.c_str(), so_path.c_str()) != 0) {
    remove_quiet(tmp_so_path);
    return support::internal_error("native backend: cannot publish " +
                                   so_path);
  }

  void* handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr || !bind(handle)) {
    if (handle != nullptr) ::dlclose(handle);
    remove_quiet(so_path);
    return support::internal_error(
        "native backend: compiled object failed to load");
  }
  backend->info_.cache_hit = false;
  backend->info_.total_seconds = total_timer.seconds();
  return backend;
}

}  // namespace rms::codegen
