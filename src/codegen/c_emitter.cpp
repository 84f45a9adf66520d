#include "codegen/c_emitter.hpp"

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>

#include "support/assert.hpp"

namespace rms::codegen {

namespace {

using opt::kNoExpr;
using opt::OptimizedSystem;
using opt::ProductAtom;
using opt::ProductEntry;
using opt::SumEntry;

/// Appends `value` in decimal (the "%d" / "%u" / "%zu" forms).
template <typename Int>
void append_int(std::string& out, Int value) {
  char buffer[24];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  RMS_CHECK(ec == std::errc());
  out.append(buffer, end);
}

/// Appends "temp<index>".
void append_temp(std::string& out, int temp_index) {
  out += "temp";
  append_int(out, temp_index);
}

void append_var(std::string& out, expr::VarId v) {
  switch (v.kind) {
    case expr::VarKind::kSpecies: out += "y["; break;
    case expr::VarKind::kRateConst: out += "k["; break;
    case expr::VarKind::kTime: out += 't'; return;
    case expr::VarKind::kTemp: RMS_CHECK_MSG(false, "unexpected temp VarId");
  }
  append_int(out, v.index);
  out += ']';
}

/// Appends the scalar entry point's opening line through the `(void)`
/// casts; `output_name` names the output array parameter.
void append_header(std::string& out, const std::string& function_name,
                   std::string_view output_name) {
  out += "/* Generated by the Reaction Modeling Suite chemical compiler. */\n"
         "void ";
  out += function_name;
  out += "(double t, const double* y, const double* k, double* ";
  out += output_name;
  out += ") {\n  (void)t; (void)y; (void)k;\n";
}

/// Streams the optimized system's expressions into one output string: no
/// intermediate strings, no printf.
struct OptimizedCPrinter {
  const OptimizedSystem& system;
  std::string& out;

  void product_use(std::uint32_t id) const {
    const ProductEntry& p = system.products[id];
    if (p.temp_index >= 0) {
      append_temp(out, p.temp_index);
    } else {
      product_body(p);
    }
  }

  void product_body(const ProductEntry& p) const {
    bool first = true;
    auto separate = [&] {
      if (!first) out += " * ";
      first = false;
    };
    if (p.prefix_len > 0) {
      separate();
      append_temp(out, system.products[p.prefix_product].temp_index);
    }
    for (std::size_t i = p.prefix_len; i < p.atoms.size(); ++i) {
      const ProductAtom& atom = p.atoms[i];
      separate();
      if (atom.kind == ProductAtom::Kind::kVar) {
        append_var(out, atom.var);
      } else {
        out += '(';
        sum_use(atom.sum);
        out += ')';
      }
    }
    if (first) out += "1.0";
  }

  void sum_use(std::int32_t id) const {
    if (id == kNoExpr) {
      out += "0.0";
      return;
    }
    const SumEntry& s = system.sums[id];
    if (s.temp_index >= 0) {
      append_temp(out, s.temp_index);
    } else {
      sum_body(s);
    }
  }

  void sum_body(const SumEntry& s) const {
    bool first = true;
    if (s.prefix_len > 0) {
      append_temp(out, system.sums[s.prefix_sum].temp_index);
      first = false;
    }
    for (std::size_t i = s.prefix_len; i < s.operands.size(); ++i) {
      const opt::SumOperand& op = s.operands[i];
      if (first) {
        if (op.coeff < 0.0) out += '-';
        first = false;
      } else {
        out += op.coeff < 0.0 ? " - " : " + ";
      }
      const ProductEntry& p = system.products[op.product];
      if (p.atoms.empty() && p.prefix_len == 0) {  // the product is 1
        append_c_number(out, std::fabs(op.coeff));
      } else if (op.coeff == 1.0 || op.coeff == -1.0) {
        product_use(op.product);
      } else {
        append_c_number(out, std::fabs(op.coeff));
        out += " * ";
        product_use(op.product);
      }
    }
    if (first) out += "0.0";
  }

  /// The function body: temp definitions, then one store per equation.
  void body(std::string_view output_name) const {
    for (const opt::TempDef& def : system.temp_order) {
      out += "  const double ";
      if (def.kind == opt::TempDef::Kind::kProduct) {
        const ProductEntry& p = system.products[def.entry];
        append_temp(out, p.temp_index);
        out += " = ";
        product_body(p);
      } else {
        const SumEntry& s = system.sums[def.entry];
        append_temp(out, s.temp_index);
        out += " = ";
        sum_body(s);
      }
      out += ";\n";
    }
    for (std::size_t i = 0; i < system.equations.size(); ++i) {
      out += "  ";
      out += output_name;
      out += '[';
      append_int(out, i);
      out += "] = ";
      sum_use(system.equations[i]);
      out += ";\n";
    }
  }
};

std::string emit_optimized_function(const OptimizedSystem& system,
                                    const std::string& function_name,
                                    std::string_view output_name) {
  std::string out;
  append_header(out, function_name, output_name);
  OptimizedCPrinter{system, out}.body(output_name);
  out += "}\n";
  return out;
}

}  // namespace

void append_c_number(std::string& out, double value) {
  // to_chars with a precision is specified to print exactly what printf
  // prints for "%.1f" (fixed) and "%.17g" (general).
  char buffer[32];
  const bool integral = value == std::floor(value) && std::fabs(value) < 1e15;
  const auto [end, ec] =
      integral ? std::to_chars(buffer, buffer + sizeof buffer, value,
                               std::chars_format::fixed, 1)
               : std::to_chars(buffer, buffer + sizeof buffer, value,
                               std::chars_format::general, 17);
  RMS_CHECK(ec == std::errc());
  out.append(buffer, end);
}

std::string emit_c_unoptimized(const odegen::EquationTable& table,
                               const CEmitOptions& options) {
  std::string out;
  append_header(out, options.function_name, "ydot");
  for (std::size_t i = 0; i < table.size(); ++i) {
    out += "  ydot[";
    append_int(out, i);
    out += "] = ";
    bool first = true;
    for (const expr::Product& p : table.equation(i).terms()) {
      if (p.coeff == 0.0) continue;
      if (first) {
        if (p.coeff < 0.0) out += '-';
        first = false;
      } else {
        out += p.coeff < 0.0 ? " - " : " + ";
      }
      const double magnitude = std::fabs(p.coeff);
      bool term_empty = true;
      if (magnitude != 1.0 || p.factors.empty()) {
        append_c_number(out, magnitude);
        term_empty = false;
      }
      for (expr::VarId v : p.factors) {
        if (!term_empty) out += " * ";
        append_var(out, v);
        term_empty = false;
      }
    }
    if (first) out += "0.0";
    out += ";\n";
  }
  out += "}\n";
  return out;
}

std::string emit_c_optimized(const opt::OptimizedSystem& system,
                             const CEmitOptions& options) {
  return emit_optimized_function(system, options.function_name, "ydot");
}

std::string emit_c_batch(const opt::OptimizedSystem& system,
                         const CEmitOptions& options) {
  RMS_CHECK_MSG(system.species_count != 0 || system.equations.empty(),
                "batch emission needs the system's species_count");
  std::string out = emit_c_optimized(system, options);
  out += "\nvoid ";
  out += options.function_name;
  out += "_batch(double t, const double* ys, const double* k,\n"
         "    double* ydots, long n) {\n"
         "  long lane;\n"
         "  for (lane = 0; lane < n; ++lane) {\n    ";
  out += options.function_name;
  out += "(t, ys + lane * ";
  append_int(out, system.species_count);
  out += ", k, ydots + lane * ";
  append_int(out, system.equations.size());
  out += ");\n  }\n}\n";
  return out;
}

std::string emit_c_jacobian(const opt::OptimizedSystem& jacobian_system,
                            const CEmitOptions& options) {
  return emit_optimized_function(jacobian_system, options.function_name,
                                 "jac");
}

}  // namespace rms::codegen
