// Robustness (fuzz-style) tests: hostile inputs must produce Status errors,
// never crashes, hangs, or silent corruption. All generators are seeded, so
// failures reproduce deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "chem/canonical.hpp"
#include "chem/smiles.hpp"
#include "data/experiment.hpp"
#include "network/generator.hpp"
#include "rdl/parser.hpp"
#include "rdl/sema.hpp"
#include "support/rng.hpp"
#include "verify/fuzzer.hpp"

namespace rms {
namespace {

std::string random_text(support::Xoshiro256& rng, std::size_t max_len,
                        const std::string& alphabet) {
  const std::size_t len = rng.below(max_len);
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out += alphabet[rng.below(alphabet.size())];
  }
  return out;
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, SmilesParserNeverCrashes) {
  support::Xoshiro256 rng(GetParam());
  const std::string alphabet = "CNOSPH[]()=#123456789.%+-clnoZRrB ";
  for (int trial = 0; trial < 400; ++trial) {
    const std::string input = random_text(rng, 40, alphabet);
    auto result = chem::parse_smiles(input);
    if (result.is_ok()) {
      // Anything accepted must canonicalize and round-trip.
      const std::string canon = chem::canonical_smiles(*result);
      auto back = chem::parse_smiles(canon);
      ASSERT_TRUE(back.is_ok()) << input << " -> " << canon;
      EXPECT_EQ(chem::canonical_smiles(*back), canon) << input;
    }
  }
}

TEST_P(FuzzSeeds, RdlParserNeverCrashes) {
  support::Xoshiro256 rng(GetParam() + 1000);
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
      " \t\n{}();:=.,*+-/\"#<>";
  for (int trial = 0; trial < 300; ++trial) {
    const std::string input = random_text(rng, 120, alphabet);
    auto program = rdl::parse_program(input);
    if (program.is_ok()) {
      // Whatever parses must survive semantic analysis without crashing.
      (void)rdl::analyze(*program);
    }
  }
}

TEST_P(FuzzSeeds, RdlKeywordSoupNeverCrashes) {
  // Token-level fuzz: random sequences of VALID tokens stress the parser's
  // recovery paths harder than random characters do.
  support::Xoshiro256 rng(GetParam() + 2000);
  const char* tokens[] = {
      "species", "const",  "rule",   "forbid", "site",   "bond", "rate",
      "init",    "where",  "radical", "depth",  "h",      "{",    "}",
      "(",       ")",      ";",      ",",      ":",      "=",    "..",
      ">=",      "==",     "*",      "+",      "-",      "/",    "1",
      "2.5",     "name",   "S",      "C",      "\"CS\"", "\"[R]\"",
      "substructure", "arrhenius",
  };
  for (int trial = 0; trial < 300; ++trial) {
    std::string input;
    const std::size_t len = rng.below(60);
    for (std::size_t i = 0; i < len; ++i) {
      input += tokens[rng.below(std::size(tokens))];
      input += ' ';
    }
    auto program = rdl::parse_program(input);
    if (program.is_ok()) (void)rdl::analyze(*program);
  }
}

TEST_P(FuzzSeeds, ExperimentParserNeverCrashes) {
  support::Xoshiro256 rng(GetParam() + 3000);
  const std::string alphabet = "0123456789.eE+- \n#:abcname";
  for (int trial = 0; trial < 400; ++trial) {
    (void)data::parse_experiment(random_text(rng, 200, alphabet));
  }
}

/// The record reader as it was before from_chars: every line split on
/// whitespace, every field read by strtod. Returns false where it rejected
/// the text.
bool split_strtod_reader(const std::string& text, std::vector<double>& times,
                         std::vector<double>& values) {
  auto is_space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  times.clear();
  values.clear();
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    std::vector<std::string> fields;
    for (std::size_t i = 0; i < line.size();) {
      while (i < line.size() && is_space(line[i])) ++i;
      const std::size_t field = i;
      while (i < line.size() && !is_space(line[i])) ++i;
      if (i > field) fields.push_back(line.substr(field, i - field));
    }
    if (fields.empty() || fields[0][0] == '#') continue;
    if (fields.size() != 2) return false;
    double record[2];
    for (int f = 0; f < 2; ++f) {
      char* parsed_end = nullptr;
      record[f] = std::strtod(fields[f].c_str(), &parsed_end);
      if (parsed_end != fields[f].c_str() + fields[f].size()) return false;
    }
    if (!times.empty() && record[0] <= times.back()) return false;
    times.push_back(record[0]);
    values.push_back(record[1]);
  }
  return !times.empty();
}

/// One number-like field: mostly decimal and exponent syntax with long
/// mantissas and out-of-range exponents, sometimes a soup of the tokens
/// strtod treats specially.
std::string random_number_field(support::Xoshiro256& rng) {
  static const char* const kSoup[] = {"0", "1", "9", "-", "+", ".", "e",
                                      "E", "0x", "inf", "nan", "p", "a"};
  std::string out;
  if (rng.below(4) == 0) {
    const std::size_t tokens = 1 + rng.below(6);
    for (std::size_t i = 0; i < tokens; ++i) out += kSoup[rng.below(13)];
    return out;
  }
  if (rng.below(4) == 0) out += rng.below(2) == 0 ? "-" : "+";
  if (rng.below(12) == 0) {
    out += rng.below(2) == 0 ? "0x1.8p" : (rng.below(2) == 0 ? "inf" : "nan");
    if (out.back() == 'p') out += std::to_string(rng.below(40));
    return out;
  }
  const std::size_t int_digits = rng.below(22);
  for (std::size_t i = 0; i < int_digits; ++i) out += char('0' + rng.below(10));
  if (rng.below(2) == 0) {
    out += '.';
    const std::size_t frac_digits = rng.below(22);
    for (std::size_t i = 0; i < frac_digits; ++i) {
      out += char('0' + rng.below(10));
    }
  }
  if (rng.below(3) == 0) {
    out += rng.below(2) == 0 ? 'e' : 'E';
    if (rng.below(2) == 0) out += rng.below(2) == 0 ? "-" : "+";
    const std::size_t exp_digits = rng.below(4);
    for (std::size_t i = 0; i < exp_digits; ++i) {
      out += char('0' + rng.below(10));
    }
  }
  return out;
}

TEST_P(FuzzSeeds, ExperimentReaderMatchesSplitStrtod) {
  // Differential: the reader must take exactly the lines the split-and-
  // strtod reader took, to the same bits, except the non-finite records it
  // now rejects.
  support::Xoshiro256 rng(GetParam() + 3500);
  static const char* const kSpace[] = {" ", "\t", "  ", "\r", " \t"};
  std::size_t accepted = 0;
  std::vector<double> times;
  std::vector<double> values;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string text;
    const std::size_t lines = 1 + rng.below(3);
    for (std::size_t l = 0; l < lines; ++l) {
      if (rng.below(3) == 0) text += kSpace[rng.below(5)];
      text += random_number_field(rng);
      if (rng.below(16) != 0) text += kSpace[rng.below(5)];
      text += random_number_field(rng);
      if (rng.below(3) == 0) text += kSpace[rng.below(5)];
      text += '\n';
    }
    const bool reference = split_strtod_reader(text, times, values);
    const bool finite =
        std::all_of(times.begin(), times.end(),
                    [](double t) { return std::isfinite(t); }) &&
        std::all_of(values.begin(), values.end(),
                    [](double v) { return std::isfinite(v); });
    auto parsed = data::parse_experiment(text);
    ASSERT_EQ(parsed.is_ok(), reference && finite)
        << '"' << text << "\": " << parsed.status().to_string();
    if (!parsed.is_ok()) continue;
    ++accepted;
    ASSERT_EQ(parsed->times.size(), times.size()) << text;
    for (std::size_t i = 0; i < times.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed->times[i]),
                std::bit_cast<std::uint64_t>(times[i]))
          << '"' << text << '"';
      EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed->values[i]),
                std::bit_cast<std::uint64_t>(values[i]))
          << '"' << text << '"';
    }
  }
  // Enough lines parse for the bitwise comparison to mean something.
  EXPECT_GT(accepted, 300u);
}

TEST_P(FuzzSeeds, RandomMoleculeCanonicalInvariance) {
  // Structured fuzz: random valid molecules (random tree + extra ring
  // bonds), shuffled, must canonicalize identically.
  support::Xoshiro256 rng(GetParam() + 4000);
  for (int trial = 0; trial < 60; ++trial) {
    chem::Molecule mol;
    const int atoms = 2 + static_cast<int>(rng.below(10));
    const chem::Element elements[] = {chem::Element::kC, chem::Element::kN,
                                      chem::Element::kO, chem::Element::kS};
    for (int i = 0; i < atoms; ++i) {
      mol.add_atom(elements[rng.below(4)]);
    }
    // Random spanning tree.
    for (int i = 1; i < atoms; ++i) {
      const auto parent = static_cast<chem::AtomIndex>(rng.below(i));
      if (mol.free_valence(parent) >= 1) {
        mol.add_bond(static_cast<chem::AtomIndex>(i), parent, 1);
      }
    }
    // A few extra ring bonds where valence allows.
    for (int extra = 0; extra < 2; ++extra) {
      const auto a = static_cast<chem::AtomIndex>(rng.below(atoms));
      const auto b = static_cast<chem::AtomIndex>(rng.below(atoms));
      if (a != b && mol.bond_between(a, b) == chem::kNoBond &&
          mol.free_valence(a) >= 1 && mol.free_valence(b) >= 1) {
        mol.add_bond(a, b, 1);
      }
    }
    mol.saturate_with_hydrogens();

    const std::string canon = chem::canonical_smiles(mol);
    // Round-trip.
    auto back = chem::parse_smiles(canon);
    ASSERT_TRUE(back.is_ok()) << canon;
    EXPECT_EQ(chem::canonical_smiles(*back), canon);
  }
}

TEST_P(FuzzSeeds, RdlSemaNeverCrashesOnStructuredModels) {
  // Grammar-level fuzz: full mostly-well-formed models (not token soup)
  // drive sema's cross-statement checks — duplicate species, unknown rate
  // names, variant-range expansion, forbid patterns. Everything must come
  // back as a model or a clean Status.
  support::Xoshiro256 rng(GetParam() + 5000);
  int accepted = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::string source = verify::random_rdl_model(rng);
    auto model = rdl::compile_rdl(source);
    if (model.is_ok()) ++accepted;
  }
  EXPECT_GT(accepted, 0);  // the generator must not drift out of the grammar
}

TEST_P(FuzzSeeds, NetworkGeneratorNeverCrashesOnRandomRuleSets) {
  // The network generator applies random rule sets to random seed
  // molecules under tight caps. Rule sets that blow up must hit the caps
  // and return a resource-exhausted Status; nothing may crash or hang.
  support::Xoshiro256 rng(GetParam() + 6000);
  network::GeneratorOptions caps;
  caps.max_species = 30;
  caps.max_reactions = 200;
  caps.max_rounds = 4;
  caps.max_atoms_per_species = 12;
  int generated = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::string source = verify::random_rdl_model(rng);
    auto model = rdl::compile_rdl(source);
    if (!model.is_ok()) continue;
    auto net = network::generate_network(*model, caps);
    if (net.is_ok()) {
      ++generated;
      EXPECT_LE(net->species.size(), caps.max_species);
      EXPECT_LE(net->reactions.size(), caps.max_reactions);
    }
  }
  EXPECT_GT(generated, 0);
}

TEST_P(FuzzSeeds, MutatedRdlNeverCrashesFullPipeline) {
  // Statement-level mutations of a known-good model: near-miss inputs that
  // exercise every diagnostic path through sema and generation.
  support::Xoshiro256 rng(GetParam() + 7000);
  support::Xoshiro256 gen_rng(GetParam() + 8000);
  const std::string base = verify::random_rdl_model(gen_rng);
  for (int trial = 0; trial < 30; ++trial) {
    const std::string mutated = verify::mutate_rdl(base, rng);
    (void)verify::build_model_from_rdl(mutated);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace rms
